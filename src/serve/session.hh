/**
 * @file
 * InferenceSession — run inference directly from the shipped
 * SmartExchange form.
 *
 * The paper's deployment story is that the Ce*B form is what lives in
 * storage; dense weights exist only transiently, rebuilt by the
 * accelerator's rebuild engine as tiles stream in. This class is the
 * software mirror: it holds a (shared, immutable) bundle of
 * SeLayerRecord pieces plus a live architecture instance, and
 * materializes W = Ce*B into the live weight tensors on demand,
 * straight from the pieces' packed 4-bit codes.
 *
 * Two policies bracket the paper's storage/compute trade-off:
 *  - cached (default): each layer is rebuilt once, lazily, and a
 *    per-layer copy of the assembled weight is kept so later rebuilds
 *    are a tensor copy instead of per-slice matmuls;
 *  - rebuild-per-call: every forward() re-materializes all weights,
 *    emulating an accelerator that never persists the dense form
 *    (optionally still through the per-layer cache, modelling a warm
 *    on-chip rebuild buffer).
 *
 * A session is single-threaded by design — forward() mutates layer
 * caches. ServeEngine owns one replica per worker. (Internally a
 * cold rebuild-all fans the disjoint layers over the kernel pool;
 * results and counters stay identical for any worker count.)
 */

#ifndef SE_SERVE_SESSION_HH
#define SE_SERVE_SESSION_HH

#include <memory>
#include <vector>

#include "core/model_file.hh"
#include "nn/blocks.hh"

namespace se {
namespace serve {

/**
 * Per-sample shape of one serve-request input: a (C, H, W)-style
 * tensor is returned as-is, a 4-D tensor must carry a leading batch
 * dim of 1 (stripped) — anything else throws std::invalid_argument.
 * Shared by ServeEngine's admission check and by callers that want to
 * pre-validate traffic.
 */
Shape sampleShape(const Tensor &t);

/**
 * What the rebuild engine reads W = Ce*B from. CeDirect is the only
 * datapath: each piece's Ce is packed to 4-bit codes
 * (core::PackedCe) at bind, and every cold rebuild decodes them
 * inside the GEMM micro-kernel (kernels::gemmCeB), so the stored
 * datapath width reaches the hot loop, as on the accelerator.
 *
 * A one-value enum only because the perfbench harness still names it
 * (makeModelEntry's trailing argument and
 * SessionOptions::weightSource); both go when that harness next
 * changes.
 */
enum class WeightSource
{
    CeDirect,
};

/** Weight rebuild policy of a session. */
struct SessionOptions
{
    /**
     * Re-materialize W = Ce*B on every forward() instead of once,
     * emulating the accelerator's no-dense-storage operating point.
     */
    bool rebuildPerCall = false;
    /**
     * Keep a per-layer copy of each assembled weight tensor so repeat
     * rebuilds are a copy (warm) instead of per-slice reconstructions
     * (cold). Disable to force every rebuild cold.
     */
    bool cacheRebuiltWeights = true;
    /** Always CeDirect; kept while the perfbench harness sets it. */
    WeightSource weightSource = WeightSource::CeDirect;
    /**
     * The bundle's dense residual (BN gamma/beta/running stats,
     * biases, undecomposed weights), installed into the net at bind
     * time with full congruence validation — this is what makes a
     * channel-pruned bundle servable with no out-of-band restore.
     * Null or empty means the factory net must bit-reproduce the
     * compression-time non-decomposed state.
     */
    std::shared_ptr<const std::vector<core::DenseTensor>> denseState;
};

/** Rebuild-engine counters of one session. */
struct SessionStats
{
    uint64_t forwardCalls = 0;
    uint64_t coldRebuilds = 0;  ///< layers assembled from Ce*B pieces
    uint64_t warmRebuilds = 0;  ///< layers restored from the cache
    double rebuildMs = 0.0;     ///< total wall-clock spent rebuilding
    /**
     * One-time bind cost: wall-clock spent packing the records' Ce
     * matrices to 4-bit codes at construction (the cold-start price
     * of serving at the stored datapath width).
     */
    double packMs = 0.0;
};

class InferenceSession
{
  public:
    /**
     * Bind a shipped model to a freshly built architecture instance.
     * The net's decomposed-layer geometry must match the records
     * (same architecture and ApplyOptions as at compression time);
     * throws core::ModelFileError otherwise. Every piece is packed to
     * 4-bit codes here (a v4 bundle's adaptive-width codes transcode
     * exactly), so a record whose alphabet has more than 7 levels
     * (SeOptions::coefBits > 4) also throws core::ModelFileError. The records stay shared and immutable —
     * the compressed form is the storage of record.
     *
     * Responses are bit-identical to the compression-time net, whose
     * weights core::finishCompression writes through
     * SeMatrix::reconstruct(): nibble decode is exact (powers of two)
     * and gemmCeB keeps every element's accumulation order.
     *
     * CONTRACT: records carry only the decomposed weights. Every
     * other tensor — BN gamma/beta/running stats, biases, layers too
     * small to decompose — comes from ONE of two places:
     *
     *  - SessionOptions::denseState (a model bundle's dense
     *    residual): installed here with full congruence validation
     *    (throws core::ModelFileError on any name/shape drift). This
     *    is the only way to serve a channel-pruned model, whose BN
     *    tensors were mutated at compression time.
     *  - the factory net as built (denseState null/empty): the
     *    factory must bit-reproduce the compression-time net's
     *    non-decomposed state (e.g. the same seeded builder), and no
     *    congruence check can catch a drift there.
     */
    InferenceSession(
        std::unique_ptr<nn::Sequential> net,
        std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
        const core::SeOptions &se_opts,
        const core::ApplyOptions &apply_opts,
        SessionOptions opts = {});

    ~InferenceSession();
    InferenceSession(const InferenceSession &) = delete;
    InferenceSession &operator=(const InferenceSession &) = delete;

    /**
     * Eval-mode forward of a (N, ...) batch, rebuilding weights first
     * per the session policy.
     */
    Tensor forward(const Tensor &batch);

    /** Mark every decomposed layer stale (next forward rebuilds). */
    void invalidateWeights();

    /** Drop the per-layer rebuilt-weight cache (next rebuild is cold). */
    void clearRebuildCache();

    /** Number of decomposed (rebuildable) layers. */
    size_t rebuildableLayers() const;

    const SessionStats &stats() const { return stats_; }
    nn::Sequential &net() { return *net_; }

  private:
    struct BoundLayer;

    /**
     * Whether one layer rebuild was cold (folded into stats_ by
     * ensureRebuilt, which also owns the wall-clock timing — layers
     * overlap under the parallel rebuild, so per-layer times would
     * not sum to anything meaningful).
     */
    bool rebuildLayer(BoundLayer &bl);
    void ensureRebuilt();

    std::unique_ptr<nn::Sequential> net_;
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model_;
    SessionOptions opts_;
    std::vector<BoundLayer> layers_;
    SessionStats stats_;
};

} // namespace serve
} // namespace se

#endif // SE_SERVE_SESSION_HH
