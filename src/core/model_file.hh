/**
 * @file
 * On-disk format for SmartExchange-form weights — what a deployment
 * pipeline would ship to the accelerator (or to se::serve).
 *
 * There is one bundle format, v4 (saveModelV4): the paper's storage
 * form. A 32-byte header (magic, version 4, meta and file sizes, a
 * version-seeded FNV-1a checksum of the meta) precedes a small meta
 * section (record table, dense residual — BN gamma/beta/running
 * stats, biases, undecomposed weights — and an 8-byte-per-piece
 * directory of lengths + checksums; offsets are derived, not stored),
 * followed by the piece region: its start is 64-byte aligned, and
 * the independently-checksummed payloads pack back-to-back inside it,
 * so core::StreamedModel can mmap a bundle, verify only the meta (and
 * the padding after it) at open, and decode pieces lazily on first
 * touch. A payload stores Ce as a 1-bit non-zero row mask plus
 * tthresh-style adaptive bit widths per column (each column pays only
 * the bits its occupied code alphabet needs, sign+magnitude, flushed
 * through encode::BitWriter; the width table itself is 2-bit packed),
 * and the basis as 8-bit fixed-point integers plus one float scale —
 * the paper's accelerator width. saveModelV4 therefore requires every
 * basis to already BE 8-bit fixed-point (it throws otherwise): run
 * quantizeBasisAtCompress() at compression time so the live net and
 * the shipped bundle stay bit-faithful to each other. Alphabets wider
 * than 7 levels (coefBits > 4) do not fit and make the save throw.
 *
 * Any other version word is refused with a ModelFileError naming it.
 * Truncated or bit-corrupted streams are always rejected with a
 * ModelFileError instead of crashing or silently mis-loading, and load
 * errors name the offending record, piece index and byte offset, so a
 * corrupt multi-thousand-piece bundle is debuggable from the message
 * alone.
 */

#ifndef SE_CORE_MODEL_FILE_HH
#define SE_CORE_MODEL_FILE_HH

#include <cstdint>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/apply.hh"
#include "core/smart_exchange.hh"

namespace se {
namespace core {

/**
 * Thrown on any malformed, truncated or corrupted model stream. Load
 * never aborts on bad input: it either returns a fully-validated
 * bundle or throws this.
 */
class ModelFileError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Serialize one SmartExchange matrix: the spill codec of
 * runtime::DecompCache's `.sedc` files. Fixed-width header, one byte
 * per Ce code ({zero | sign, exponent code}), float32 basis — any
 * alphabet up to 126 levels, not a bundle format.
 */
void saveSeMatrix(std::ostream &os, const SeMatrix &m);

/**
 * Deserialize one saveSeMatrix matrix (exact round trip). Throws
 * ModelFileError on truncation or implausible metadata.
 */
SeMatrix loadSeMatrix(std::istream &is);

/** A named bundle of SeMatrix pieces (e.g. one conv layer). */
struct SeLayerRecord
{
    std::string name;
    std::vector<SeMatrix> pieces;
};

/**
 * One named dense tensor of the residual section: everything a served
 * model needs that the Ce*B records do not carry — BN gamma/beta and
 * running stats, conv/linear biases, weights of layers too small to
 * decompose. Names are positional ("<leaf index>:<kind>:<role>") and
 * validated on install, so a bundle can never be applied to a
 * mismatched architecture.
 */
struct DenseTensor
{
    std::string name;
    Tensor value;
};

/** An in-memory model bundle: records plus dense residual. */
struct ModelBundle
{
    std::vector<SeLayerRecord> records;
    /** Everything the records do not carry (see DenseTensor); empty
     *  only for a bundle saved without one. */
    std::vector<DenseTensor> dense;
};

/**
 * A Ce matrix at the accelerator's storage width: a 1-bit-per-row
 * non-zero mask plus the surviving rows' codes packed two 4-bit
 * nibbles per byte (low nibble first; nibble = 0 for zero, else
 * sign bit 0x8 | exponent code 1..numLevels; 0x8 alone is illegal).
 * This is the in-memory form serve::InferenceSession packs at bind
 * and feeds to kernels::gemmCeB on every cold rebuild; it is never
 * written to a file.
 */
struct PackedCe
{
    int64_t rows = 0;
    int64_t cols = 0;
    int64_t nonZeroRows = 0;
    quant::Pow2Alphabet alphabet;
    std::vector<uint8_t> rowMask;  ///< ceil(rows/8), LSB-first
    std::vector<uint8_t> nibbles;  ///< ceil(nonZeroRows*cols/2)
};

/**
 * Pack a Ce tensor (entries in Omega_P) at true 4-bit width. Throws
 * ModelFileError when the alphabet needs more than 7 levels: a
 * nibble holds one sign bit and a 3-bit exponent code, so a
 * coefBits > 4 run cannot pack.
 */
PackedCe packCe(const Tensor &ce, const quant::Pow2Alphabet &alphabet);

/** Exact inverse of packCe. */
Tensor unpackCe(const PackedCe &p);

/**
 * Serialize records + dense residual as a v4 streaming bundle:
 * checksummed meta (record table, dense residual, length+checksum
 * piece directory) followed by back-to-back independently-checksummed
 * piece payloads in a 64-byte-aligned region — adaptive per-column
 * Ce bit widths, int8 basis + one float scale per piece. Every basis must already be at an 8-bit
 * fixed point (see quantizeBasisAtCompress); saveModelV4 throws
 * ModelFileError otherwise rather than ship a bundle that would not
 * be bit-faithful to the live net.
 */
void saveModelV4(std::ostream &os,
                 const std::vector<SeLayerRecord> &layers,
                 const std::vector<DenseTensor> &dense = {});

/**
 * Load and fully validate a v4 bundle, every piece decoded. Throws
 * ModelFileError on any damage, and on any other version word (the
 * message names the version).
 */
ModelBundle loadModelBundle(std::istream &is);

/** Save to / load from a file path. */
void saveModelV4File(const std::string &path, const ModelBundle &b);
ModelBundle loadModelBundleFile(const std::string &path);

/**
 * Snap every piece's basis to an 8-bit (or `bits`-wide) fixed point
 * in place: iterate fakeQuantize under a freshly calibrated
 * quant::FixedPointQuantizer until the tensor is bitwise stable, so
 * saveModelV4's exact-recovery check (re-calibrate, toInt, toFloat,
 * compare bits) is deterministic — a basis that merely LOOKS
 * quantized but sits one ulp off a representable point can never
 * slip through. Returns the number of pieces whose basis changed.
 */
size_t quantizeBasisAtCompress(std::vector<SeLayerRecord> &records,
                               int bits = 8);

// ------------------------------------------------- v4 streaming layout
//
// Shared between the eager loadModelBundle path and the lazy
// core::StreamedModel: both must agree bit-for-bit on what a valid
// v4 bundle looks like.
namespace modelv4 {

/** Fixed 32-byte header: u32 magic, u32 version=4, u64 metaBytes,
 *  u64 fileBytes (total, header included), u64 meta checksum
 *  (FNV-1a over the meta section, seeded with hashValue(4u)). */
constexpr size_t kHeaderBytes = 32;
/** The piece region (first payload) starts on a 64-byte boundary
 *  (one cache line / mmap-friendly); payloads then pack back-to-back
 *  and the meta→region padding run must be zero. */
constexpr size_t kPieceAlign = 64;

/** One piece directory row as parsed: the file stores only a u32
 *  payload length and the low 32 bits of the version-seeded FNV-1a
 *  checksum of the payload bytes (8 bytes per piece — the directory
 *  itself sits under the u64 meta checksum); the absolute offset is
 *  derived by parseMeta from the aligned region start + running
 *  lengths. */
struct PieceDirEntry
{
    uint64_t offset = 0;    ///< derived, not stored in the file
    uint64_t length = 0;
    uint64_t checksum = 0;  ///< low 32 bits of fnv1a(payload, v4 seed)
};

/** Parsed + validated header/meta of a v4 bundle. Piece payloads are
 *  NOT decoded (that is decodePiece, per piece). */
struct Meta
{
    std::vector<std::string> recordNames;
    std::vector<uint32_t> pieceCounts;  ///< per record, sums to directory size
    std::vector<DenseTensor> dense;
    std::vector<PieceDirEntry> directory;
    uint64_t metaBytes = 0;
    uint64_t fileBytes = 0;
};

/**
 * Parse and validate the header + meta section of a v4 bundle held
 * (or mmapped) in memory: magic/version, meta checksum, dense
 * residual, full directory canonicality (offsets derived from the
 * aligned region start and running lengths, last piece ends exactly
 * at fileBytes == size) and a zero meta→region padding run, so every
 * byte outside the piece payloads is checked. Throws ModelFileError
 * on any damage. O(meta), independent of total piece bytes — this is
 * the lazy loader's open-time cost.
 */
Meta parseMeta(const uint8_t *file, size_t size);

/**
 * Checksum-verify and decode directory entry `index` of a bundle
 * whose parseMeta already succeeded. Errors carry the piece index
 * and byte offset. Exact: re-encoding the result reproduces the
 * payload bytes.
 */
SeMatrix decodePiece(const uint8_t *file, const Meta &meta, size_t index);

} // namespace modelv4

// ------------------------------------------------- nn <-> record glue

/**
 * Pluggable single-matrix decomposition, so callers can route the ALS
 * work through runtime::CompressionPipeline's cache/pool. Defaults to
 * the serial core::decomposeMatrix.
 */
using DecomposeFn =
    std::function<SeMatrix(const Tensor &, const SeOptions &)>;

/** A shippable compressed model plus its compression report. */
struct CompressedModel
{
    /**
     * One record per decomposed layer, pieces in plan/unit order — the
     * exact shape installLayerRecords() and serve::InferenceSession
     * expect back.
     */
    std::vector<SeLayerRecord> records;
    /**
     * The dense residual: BN gamma/beta/running stats, biases, and
     * undecomposed weights, captured AFTER channel pruning — so a
     * pruned model serves from {records, dense} alone, no out-of-band
     * restore. saveModelV4 ships it and installModelBundle() puts it
     * back.
     */
    std::vector<DenseTensor> dense;
    CompressionReport report;

    ModelBundle
    bundle() const
    {
        return {records, dense};
    }
};

/**
 * Compress a network into shippable records: plan, decompose every
 * unit, install the Ce*B reconstructions in place (exactly like
 * applySmartExchange) and keep the decomposed pieces grouped per
 * layer plus the dense residual. Undecomposed layers produce no
 * record (their weights ship in the dense section).
 */
CompressedModel compressToRecords(nn::Sequential &net,
                                  const SeOptions &se_opts,
                                  const ApplyOptions &apply_opts,
                                  const DecomposeFn &decomp = nullptr);

/**
 * Compress-time variant of quantizeBasisAtCompress(records): quantize
 * the bases of `model.records` and, when anything changed, reinstall
 * the records into the live net so the compression-time net is
 * bit-identical to what a v4 bundle will serve. Call between
 * compressToRecords() and saveModelV4().
 */
void quantizeBasisAtCompress(nn::Sequential &net, CompressedModel &model,
                             const SeOptions &se_opts,
                             const ApplyOptions &apply_opts, int bits = 8);

/**
 * Snapshot a network's dense residual state — every tensor a served
 * model needs that is NOT one of the decomposed weights: BN
 * gamma/beta/running stats, conv/linear biases, and the weights of
 * layers absent from `decomposed_weights`. Leaf visit order gives the
 * positional names installDenseState() validates against.
 */
std::vector<DenseTensor> collectDenseState(
    nn::Sequential &net,
    const std::vector<const Tensor *> &decomposed_weights);

/**
 * Write a shipped dense residual back into a live network. The
 * bundle must cover exactly the net's non-decomposed state (same
 * names, same shapes, same order) — anything else throws
 * ModelFileError, so a pruned bundle can never half-apply.
 */
void installDenseState(
    nn::Sequential &net, const std::vector<DenseTensor> &dense,
    const std::vector<const Tensor *> &decomposed_weights);

/**
 * One decomposed planned layer matched to its shipped record: plan
 * units [unitBegin, unitBegin + unitCount) belong to layer
 * plan.layers[layerIndex], and record->pieces[k] corresponds to unit
 * unitBegin + k.
 */
struct RecordBinding
{
    size_t layerIndex = 0;
    size_t unitBegin = 0;
    size_t unitCount = 0;
    const SeLayerRecord *record = nullptr;
};

/**
 * Match shipped records against a re-derived compression plan,
 * validating full congruence (layer names, piece counts, slice
 * shapes). Throws ModelFileError on any mismatch. Shared by
 * installLayerRecords and serve::InferenceSession.
 */
std::vector<RecordBinding> matchRecordsToPlan(
    const CompressionPlan &plan,
    const std::vector<SeLayerRecord> &records);

/**
 * Install previously-shipped records into a freshly built instance of
 * the same architecture: re-plan the layer geometry, check that the
 * records are congruent (via matchRecordsToPlan), and write every
 * Ce*B reconstruction into the live weights. Channel pruning is never
 * re-applied: its effect is already baked into the shipped
 * coefficients.
 */
CompressionReport installLayerRecords(
    nn::Sequential &net, const std::vector<SeLayerRecord> &records,
    const SeOptions &se_opts, const ApplyOptions &apply_opts);

/**
 * installLayerRecords for a whole bundle: install the dense residual
 * first (when present), then the Ce*B reconstructions. With the
 * bundle of a channel-pruned model this restores the pruned BN
 * state — the fresh net ends bit-identical to the compression-time
 * net, with no out-of-band restore.
 */
CompressionReport installModelBundle(nn::Sequential &net,
                                     const ModelBundle &bundle,
                                     const SeOptions &se_opts,
                                     const ApplyOptions &apply_opts);

} // namespace core
} // namespace se

#endif // SE_CORE_MODEL_FILE_HH
