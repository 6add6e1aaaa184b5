/**
 * @file
 * The parallel compression pipeline.
 *
 * CompressionPipeline runs core::applySmartExchange's work — one
 * independent ALS decomposition per reshaped weight slice — across the
 * kernel pool (kernels::parallelFor, width SE_THREADS), optionally
 * through the decomposition cache, and reassembles the
 * CompressionReport deterministically. Because decomposeMatrix is
 * deterministic and every slice is independent, the result is
 * bit-identical to the serial one at any pool width.
 */

#ifndef SE_RUNTIME_PIPELINE_HH
#define SE_RUNTIME_PIPELINE_HH

#include "core/apply.hh"
#include "runtime/decomp_cache.hh"
#include "runtime/options.hh"

namespace se {
namespace runtime {

/** Counters from the last CompressionPipeline::run(). */
struct PipelineStats
{
    size_t units = 0;       ///< decomposition tasks executed
    size_t cacheHits = 0;   ///< tasks answered from the cache
};

class CompressionPipeline
{
  public:
    explicit CompressionPipeline(RuntimeOptions opts = {})
        : opts_(opts),
          cache_(DecompCacheOptions{opts.cacheCapacity, opts.cacheDir})
    {
    }

    /**
     * Drop-in parallel equivalent of core::applySmartExchange: same
     * inputs, same in-place weight replacement, bit-identical report.
     */
    core::CompressionReport run(nn::Sequential &net,
                                const core::SeOptions &se_opts,
                                const core::ApplyOptions &apply_opts);

    const PipelineStats &stats() const { return stats_; }
    DecompCache &cache() { return cache_; }

  private:
    RuntimeOptions opts_;
    DecompCache cache_;
    PipelineStats stats_;
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_PIPELINE_HH
