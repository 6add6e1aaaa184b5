/**
 * @file
 * StreamedModel — mmap-backed lazy access to a v4 model bundle.
 *
 * loadModelBundle() decodes every piece of every record before the
 * caller sees a byte; fine for one model, hostile to a multi-model
 * fleet where most models are cold at process start. StreamedModel
 * opens a v4 bundle by mmapping it and validating only the header +
 * checksummed meta section (record table, dense residual, piece
 * directory) — O(meta), independent of how many gigabytes of piece
 * payloads follow. Pieces are checksum-verified and decoded on first
 * touch and cached; a model nobody submits to never pays its decode.
 *
 * The dense residual lives in the meta section and is available
 * immediately after open (it is small and the serve factory needs it
 * to build a net before any piece decodes).
 *
 * Laziness is an access policy, not a validation loophole: open
 * checks every byte outside the piece payloads (padding included),
 * and every payload byte that IS read is checksummed first, so a
 * corrupt piece fails loudly at first touch with its index and
 * offset, exactly like loadModelBundle. records() decodes (and so
 * fully validates) everything — same guarantees as
 * loadModelBundleFile, same decoded bits.
 *
 * A piece decodes under the internal mutex; a failed decode
 * (including one injected by the `stream_piece_decode` failpoint)
 * leaves the piece cold, so the next touch retries.
 *
 * Thread safety: all accessors are safe to call concurrently after
 * construction; piece state is serialized by an internal mutex.
 */

#ifndef SE_CORE_STREAM_LOADER_HH
#define SE_CORE_STREAM_LOADER_HH

#include <memory>
#include <string>
#include <vector>

#include "base/mutex.hh"
#include "core/model_file.hh"

namespace se {
namespace core {

struct StreamLoaderOptions
{
    /** Skip mmap and read the file into an owned buffer (platforms
     *  without mmap get this automatically; tests use it to pin both
     *  backends to identical bits). */
    bool forceRead = false;
};

class StreamedModel
{
  public:
    explicit StreamedModel(const std::string &path,
                           StreamLoaderOptions opts = {});
    ~StreamedModel();

    StreamedModel(const StreamedModel &) = delete;
    StreamedModel &operator=(const StreamedModel &) = delete;

    /** True when the bundle is mmapped (false on the read fallback). */
    bool mapped() const { return mapped_; }

    size_t pieceCount() const { return meta_.directory.size(); }

    /** Pieces decoded so far — the lazy-loading observable: after
     *  open it is 0, and it only grows when something actually
     *  touches a piece. */
    size_t decodedPieces() const SE_EXCLUDES(mu_);

    const std::vector<std::string> &
    recordNames() const
    {
        return meta_.recordNames;
    }

    /** Dense residual — available at open, no piece decode. */
    const std::vector<DenseTensor> &dense() const { return meta_.dense; }

    const modelv4::Meta &meta() const { return meta_; }

    /**
     * Piece `index` (flat directory order), checksum-verified and
     * decoded on first touch, cached thereafter. Throws ModelFileError
     * (with the piece index and byte offset) on corruption.
     */
    const SeMatrix &piece(size_t index) const SE_EXCLUDES(mu_);

    /**
     * The full record vector (grouped per layer, piece order
     * preserved) — decodes every remaining piece on first call, then
     * serves the cached copy. This is what a serve engine binds
     * against; shared_ptr so a caller can hold the records across a
     * registry swap without copying them.
     */
    std::shared_ptr<const std::vector<SeLayerRecord>> records() const
        SE_EXCLUDES(mu_);

    /** records() + dense() as an eager-equivalent bundle (decodes
     *  everything). */
    ModelBundle bundle() const;

  private:
    const uint8_t *filePtr() const;
    const SeMatrix &pieceLocked(size_t index) const SE_REQUIRES(mu_);

    bool mapped_ = false;
    void *map_ = nullptr;     ///< mmap base (mapped_ == true)
    size_t mapLen_ = 0;
    std::string buffer_;      ///< read fallback (mapped_ == false)
    modelv4::Meta meta_;

    /** Guards the decode cache (a null entry is a cold piece) and
     *  the assembled record vector; decodes run under it. */
    mutable base::Mutex mu_;
    mutable std::vector<std::unique_ptr<SeMatrix>> cache_
        SE_GUARDED_BY(mu_);
    mutable std::shared_ptr<const std::vector<SeLayerRecord>> records_
        SE_GUARDED_BY(mu_);
};

} // namespace core
} // namespace se

#endif // SE_CORE_STREAM_LOADER_HH
