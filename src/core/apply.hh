/**
 * @file
 * Applying the SmartExchange algorithm to whole networks
 * (Section III-C): layer reshaping rules, channel-wise BN-gamma
 * pruning, in-place weight replacement with the Ce*B reconstruction,
 * and the storage accounting behind the paper's CR / Param / B / Ce /
 * Spar. columns (Tables II and III).
 */

#ifndef SE_CORE_APPLY_HH
#define SE_CORE_APPLY_HH

#include <string>
#include <vector>

#include "core/smart_exchange.hh"
#include "nn/blocks.hh"

namespace se {
namespace core {

/** Network-level application knobs. */
struct ApplyOptions
{
    /** S used when reshaping FC rows into (C/S x S) matrices. */
    int64_t fcGroupSize = 4;
    /**
     * Slice reshaped matrices taller than this along the first
     * dimension (the paper's imbalanced-dimension mitigation);
     * 0 disables slicing.
     */
    int64_t maxSliceRows = 0;
    /**
     * Channel-wise pruning: zero conv output channels whose following
     * BN gamma magnitude is below this (0 disables). Applied once, as
     * in the paper.
     */
    double channelGammaThreshold = 0.0;
    /** Skip layers with fewer weights than this (tiny layers). */
    int64_t minWeightsToDecompose = 16;
};

/** Per-layer compression outcome. */
struct LayerReport
{
    std::string name;
    int64_t weightCount = 0;
    int64_t originalBits = 0;  ///< FP32 storage of the dense weights
    int64_t ceBits = 0;        ///< non-zero Ce rows + 1-bit row index
    int64_t basisBits = 0;
    double vectorSparsity = 0.0;
    double elementSparsity = 0.0;
    double channelSparsity = 0.0;
    double reconRelError = 0.0;
    bool decomposed = false;
    int pieces = 0;            ///< number of {Ce,B} pairs in the layer
};

/** Whole-network compression outcome. */
struct CompressionReport
{
    std::vector<LayerReport> layers;

    int64_t originalBits() const;
    int64_t compressedBits() const;  ///< Ce + B + index (+ dense rest)
    int64_t ceBitsTotal() const;
    int64_t basisBitsTotal() const;

    /** Paper's CR: FP32 bits / (Ce + B + index) bits. */
    double compressionRate() const;

    /** Weighted mean vector-wise sparsity over decomposed layers. */
    double overallVectorSparsity() const;

    /** Paper's "Spar.": pruned / total parameters. */
    double prunedParamRatio() const;

    double originalMB() const { return (double)originalBits() / 8e6; }
    double paramMB() const { return (double)compressedBits() / 8e6; }
    double ceMB() const { return (double)ceBitsTotal() / 8e6; }
    double basisMB() const { return (double)basisBitsTotal() / 8e6; }
};

/**
 * Apply SmartExchange to every eligible layer of a network, replacing
 * weights in place with their Ce*B reconstruction so the network runs
 * exactly what the accelerator would rebuild.
 */
CompressionReport applySmartExchange(nn::Sequential &net,
                                     const SeOptions &se_opts,
                                     const ApplyOptions &apply_opts);

// --- plan / decompose / finish decomposition of applySmartExchange ----
//
// applySmartExchange() is equivalent to:
//   1. planCompression()  — reshape every eligible layer into
//      independent 2-D slices (one DecompUnit each),
//   2. decomposeMatrix()  — on each unit's matrix, in any order
//      (units are mutually independent and decomposeMatrix is
//      deterministic),
//   3. finishCompression() — write the Ce*B reconstructions back into
//      the network and assemble the CompressionReport.
// The split exists so se::runtime can run step 2 across a thread pool
// (and through a result cache) while producing bit-identical output.

/** One independent decomposition task: a reshaped 2-D slice. */
struct DecompUnit
{
    Tensor matrix;         ///< slice to decompose (rows x cols)
    size_t layerIndex = 0; ///< into CompressionPlan::layers
    int64_t filter = 0;    ///< owning conv filter / FC row
    int64_t rowOffset = 0; ///< first row within the reshaped matrix
};

/**
 * Where a decomposed layer's Ce*B slices land in its live weight
 * tensor: the write-back half of the reshape rules. finishCompression
 * and serve::InferenceSession's cold rebuild both scatter through
 * writeSlice(), so compression and serving place every element alike.
 */
struct SliceGeometry
{
    Tensor *weight = nullptr;  ///< write-back target (the live tensor)
    bool convKxK = false;      ///< conv reshape rule vs. FC group rule
    int64_t kernelR = 1;       ///< conv kernel height
    int64_t kernelS = 1;       ///< conv kernel width / FC group size
    int64_t rowLength = 0;     ///< FC / 1x1 conv: flattened row length

    /**
     * Write one reconstructed slice (rows x kernelS) of conv filter /
     * FC row `filter`, whose first row is reshaped row `rowOffset`,
     * into *weight. FC zero padding past rowLength is dropped.
     */
    void writeSlice(int64_t filter, int64_t rowOffset,
                    const Tensor &recon) const;
};

/** A reported layer plus the geometry needed to write results back. */
struct PlannedLayer
{
    LayerReport report;     ///< pre-filled name / counts / chan-spar
    SliceGeometry geometry; ///< weight null for undecomposed layers
};

/** Everything needed to run and then finish a compression pass. */
struct CompressionPlan
{
    std::vector<PlannedLayer> layers;
    std::vector<DecompUnit> units;  ///< grouped by layer, in order
};

/**
 * Build the slice plan for a network. Performs the one-time channel
 * gamma pruning (mutating the network), so call it exactly once per
 * application.
 */
CompressionPlan planCompression(nn::Sequential &net,
                                const SeOptions &se_opts,
                                const ApplyOptions &apply_opts);

/**
 * Write decomposed pieces back into the network and assemble the
 * report. `results[i]` must be decomposeMatrix(plan.units[i].matrix).
 */
CompressionReport finishCompression(const CompressionPlan &plan,
                                    std::vector<SeMatrix> results,
                                    const SeOptions &se_opts);

/**
 * Decompose one conv layer's weights (per-filter reshape, CONV rules
 * from Section III-C) without touching the network. Used by unit tests
 * and by the single-matrix benches.
 */
std::vector<SeMatrix> decomposeConvWeight(const Tensor &weight,
                                          const SeOptions &se_opts,
                                          const ApplyOptions &apply_opts);

/**
 * Decompose an FC weight (per-row C/S x S reshape with zero padding).
 */
std::vector<SeMatrix> decomposeFcWeight(const Tensor &weight,
                                        const SeOptions &se_opts,
                                        const ApplyOptions &apply_opts);

} // namespace core
} // namespace se

#endif // SE_CORE_APPLY_HH
