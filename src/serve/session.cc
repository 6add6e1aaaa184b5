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
    core::SliceGeometry geometry;  ///< the plan's; weight is in net_

    struct BoundUnit
    {
        const core::SeMatrix *piece = nullptr;  ///< into *model_
        int64_t filter = 0;
        int64_t rowOffset = 0;
        core::PackedCe packed;  ///< the piece's Ce as 4-bit codes
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
        BoundLayer bl;
        bl.geometry = plan.layers[b.layerIndex].geometry;
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
            decomposed.push_back(bl.geometry.weight);
        core::installDenseState(*net_, *opts_.denseState, decomposed);
    }

    // Keep each piece at the accelerator's storage width. Packing is
    // exact (codes are codes), so this is a one-time transcode, not a
    // quantization step; it refuses alphabets wider than 4 bits, and
    // its cost lands in stats().packMs.
    const auto t0 = SteadyClock::now();
    for (BoundLayer &bl : layers_)
        for (auto &bu : bl.units)
            bu.packed = core::packCe(bu.piece->ce, bu.piece->alphabet);
    stats_.packMs = msSince(t0);
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
        *bl.geometry.weight = bl.cache;  // warm: one dense copy
        cold = false;
    } else {
        // Cold: rebuild every Ce*B slice with the fused gemmCeB, which
        // decodes the packed 4-bit codes inside the micro-kernel (no
        // staged float panels), and scatter it through the same
        // writeSlice as core::finishCompression.
        for (const auto &bu : bl.units) {
            const core::PackedCe &p = bu.packed;
            const int64_t cols = bu.piece->basis.dim(1);
            Tensor recon({p.rows, cols});
            kernels::gemmCeB(p.rowMask.data(), p.nibbles.data(), p.rows,
                             p.cols, bu.piece->basis.data(), cols,
                             p.alphabet, recon.data());
            bl.geometry.writeSlice(bu.filter, bu.rowOffset, recon);
        }
        if (opts_.cacheRebuiltWeights) {
            bl.cache = *bl.geometry.weight;
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
