#include "serve/session.hh"

#include <stdexcept>

#include "base/clock.hh"
#include "kernels/ce_gemm.hh"
#include "kernels/kernels.hh"

namespace se {
namespace serve {

Shape
sampleShape(const Tensor &t)
{
    if (t.ndim() == 4) {
        if (t.dim(0) != 1)
            throw std::invalid_argument(
                "serve request batch dim must be 1");
        return {t.dim(1), t.dim(2), t.dim(3)};
    }
    return t.shape();
}

/** One decomposed layer bound to its shipped pieces. */
struct InferenceSession::BoundLayer
{
    Tensor *weight = nullptr;  ///< live tensor inside net_
    bool convKxK = false;
    int64_t kernelR = 1;
    int64_t kernelS = 1;
    int64_t rowLength = 0;

    struct BoundUnit
    {
        const core::SeMatrix *piece = nullptr;  ///< into *model_
        int64_t filter = 0;
        int64_t rowOffset = 0;
        /** 4-bit storage form; filled only under CeDirect. */
        core::PackedCe packed;
    };
    std::vector<BoundUnit> units;

    bool stale = true;
    bool cacheValid = false;
    Tensor cache;  ///< assembled dense weight (warm-rebuild source)
};

InferenceSession::InferenceSession(
    std::unique_ptr<nn::Sequential> net,
    std::shared_ptr<const std::vector<core::SeLayerRecord>> model,
    const core::SeOptions &se_opts,
    const core::ApplyOptions &apply_opts, SessionOptions opts)
    : net_(std::move(net)), model_(std::move(model)), opts_(opts)
{
    // Re-derive the slice geometry from the live architecture, with
    // pruning disabled (its effect is baked into the coefficients).
    core::ApplyOptions plan_opts = apply_opts;
    plan_opts.channelGammaThreshold = 0.0;
    core::CompressionPlan plan =
        core::planCompression(*net_, se_opts, plan_opts);

    // The bound pieces point into *model_, which the session's
    // shared_ptr keeps alive.
    for (const core::RecordBinding &b :
         core::matchRecordsToPlan(plan, *model_)) {
        const core::PlannedLayer &pl = plan.layers[b.layerIndex];
        BoundLayer bl;
        bl.weight = pl.weight;
        bl.convKxK = pl.convKxK;
        bl.kernelR = pl.kernelR;
        bl.kernelS = pl.kernelS;
        bl.rowLength = pl.rowLength;
        for (size_t k = 0; k < b.unitCount; ++k) {
            const core::DecompUnit &u = plan.units[b.unitBegin + k];
            bl.units.push_back(
                {&b.record->pieces[k], u.filter, u.rowOffset, {}});
        }
        layers_.push_back(std::move(bl));
    }

    // Dense residual: restore the non-decomposed state the records
    // cannot carry (pruned BN tensors, biases, undecomposed weights)
    // before anything runs. Full congruence is validated — a bundle
    // can never half-apply to a mismatched factory.
    if (opts_.denseState && !opts_.denseState->empty()) {
        std::vector<const Tensor *> decomposed;
        decomposed.reserve(layers_.size());
        for (const BoundLayer &bl : layers_)
            decomposed.push_back(bl.weight);
        core::installDenseState(*net_, *opts_.denseState, decomposed);
    }

    // CeDirect: keep each piece at the accelerator's storage width.
    // Packing is exact (codes are codes), so this is a one-time
    // transcode, not a quantization step; its cost is the CeDirect
    // cold-start price and lands in stats().packMs.
    if (opts_.weightSource == WeightSource::CeDirect) {
        const auto t0 = SteadyClock::now();
        for (BoundLayer &bl : layers_)
            for (auto &bu : bl.units)
                bu.packed =
                    core::packCe(bu.piece->ce, bu.piece->alphabet);
        stats_.packMs = msSince(t0);
    }
}

InferenceSession::~InferenceSession() = default;

size_t
InferenceSession::rebuildableLayers() const
{
    return layers_.size();
}

bool
InferenceSession::rebuildLayer(BoundLayer &bl)
{
    bool cold;
    if (bl.cacheValid && opts_.cacheRebuiltWeights) {
        *bl.weight = bl.cache;  // warm: one dense copy
        cold = false;
    } else {
        // Cold: reconstruct every Ce*B slice and write it back, the
        // same geometry as core::finishCompression. Under CeDirect
        // the fused gemmCeB decodes the packed 4-bit codes inside the
        // micro-kernel — no staged float panels (bit-identical to the
        // dense reconstruct at every ISA).
        Tensor &w = *bl.weight;
        for (const auto &bu : bl.units) {
            Tensor recon;
            if (opts_.weightSource == WeightSource::CeDirect) {
                const core::PackedCe &p = bu.packed;
                const int64_t cols = bu.piece->basis.dim(1);
                recon = Tensor({p.rows, cols});
                kernels::gemmCeB(p.rowMask.data(), p.nibbles.data(),
                                 p.rows, p.cols,
                                 bu.piece->basis.data(), cols,
                                 p.alphabet, recon.data());
            } else {
                recon = bu.piece->reconstruct();
            }
            if (bl.convKxK) {
                const int64_t r = bl.kernelR, s = bl.kernelS;
                for (int64_t i = 0; i < recon.dim(0); ++i) {
                    const int64_t g = bu.rowOffset + i;
                    for (int64_t ks = 0; ks < s; ++ks)
                        w.at(bu.filter, g / r, g % r, ks) =
                            recon.at(i, ks);
                }
            } else {
                const int64_t s = bl.kernelS, c = bl.rowLength;
                for (int64_t i = 0; i < recon.dim(0); ++i) {
                    const int64_t g = bu.rowOffset + i;
                    for (int64_t k = 0; k < s; ++k) {
                        const int64_t j = g * s + k;
                        if (j < c)
                            w[bu.filter * c + j] = recon.at(i, k);
                    }
                }
            }
        }
        if (opts_.cacheRebuiltWeights) {
            bl.cache = w;
            bl.cacheValid = true;
        }
        cold = true;
    }
    bl.stale = false;
    return cold;
}

void
InferenceSession::ensureRebuilt()
{
    std::vector<size_t> stale;
    for (size_t i = 0; i < layers_.size(); ++i)
        if (layers_[i].stale)
            stale.push_back(i);
    if (stale.empty())
        return;

    // Layers are disjoint (each owns its weight tensor and cache), so
    // cold rebuild-all fans out over the kernel pool. The per-slice
    // Ce*B GEMMs are tiny, so each worker runs its layer serially;
    // stats are folded in index order afterwards, keeping counters
    // and outputs identical for any worker count.
    std::vector<char> cold(stale.size(), 0);
    const auto t0 = SteadyClock::now();
    if (stale.size() > 1 && !kernels::serialScopeActive()) {
        kernels::parallelFor(
            (int64_t)stale.size(), [&](int64_t i) {
                kernels::SerialScope serial;
                cold[(size_t)i] =
                    rebuildLayer(layers_[stale[(size_t)i]]);
            });
    } else {
        for (size_t i = 0; i < stale.size(); ++i)
            cold[i] = rebuildLayer(layers_[stale[i]]);
    }
    for (char c : cold) {
        if (c)
            ++stats_.coldRebuilds;
        else
            ++stats_.warmRebuilds;
    }
    // Wall-clock, not a sum of per-layer times: with a parallel
    // rebuild the layers overlap.
    stats_.rebuildMs += msSince(t0);
}

Tensor
InferenceSession::forward(const Tensor &batch)
{
    if (opts_.rebuildPerCall)
        invalidateWeights();
    ensureRebuilt();
    ++stats_.forwardCalls;
    return net_->forward(batch, /*train=*/false);
}

void
InferenceSession::invalidateWeights()
{
    for (auto &bl : layers_)
        bl.stale = true;
}

void
InferenceSession::clearRebuildCache()
{
    for (auto &bl : layers_) {
        bl.cacheValid = false;
        bl.cache = Tensor();
        bl.stale = true;
    }
}

} // namespace serve
} // namespace se
