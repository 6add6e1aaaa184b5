/**
 * @file
 * Shared knobs of the se::runtime layer.
 */

#ifndef SE_RUNTIME_OPTIONS_HH
#define SE_RUNTIME_OPTIONS_HH

#include <cstddef>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "base/env.hh"
#include "base/failpoint.hh"
#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"

namespace se {
namespace runtime {

/** Execution policy for the runtime drivers. */
struct RuntimeOptions
{
    /**
     * Worker threads. 0 selects the legacy serial path (no pool, no
     * task plumbing, cache bypassed — byte-for-byte the pre-runtime
     * behaviour); negative means "one per hardware core".
     */
    int threads = 0;
    /**
     * Decomposition-cache capacity in entries; 0 disables caching.
     * Repeated sweeps (ablations, design-space scans) with identical
     * (weights, options) inputs then skip the ALS loop entirely.
     * Ignored on the legacy path (threads = 0).
     */
    size_t cacheCapacity = 0;
    /**
     * Which micro-kernel ISA variant the GEMM layer runs
     * (SE_KERNEL_ISA = auto | scalar | avx2). Empty (the
     * default) leaves the process-wide selection alone — dispatch
     * already initialized itself from SE_KERNEL_ISA at startup, so
     * this field only matters for programmatic overrides via
     * applyKernelConfig(). Every variant is bit-identical; the knob
     * moves wall-clock only. Requesting an ISA the CPU lacks throws.
     */
    std::optional<kernels::KernelIsa> kernelIsa;
    /**
     * Serving admission cap (SE_SERVE_QUEUE_CAP in the environment):
     * requests beyond this many queued-but-undispatched ones are shed
     * with serve::AdmissionError. 0 = unbounded. Consumed by the
     * serve-layer drivers (bench_serve, serve_demo), which copy it
     * into serve::ServeOptions::queueCap.
     */
    size_t serveQueueCap = 0;
    /**
     * Serving flush deadline in ms (SE_SERVE_DEADLINE_MS): > 0 makes
     * the serve drivers select FlushPolicy::Deadline with this bound
     * on the oldest queued request's age. <= 0 leaves the driver's
     * default policy in place.
     */
    double serveDeadlineMs = 0.0;
    /**
     * Spill directory of the persistent DecompCache (SE_CACHE_DIR).
     * Empty (the default) keeps the cache memory-only; set, every
     * decomposition result is also written to disk (atomic
     * temp+rename, per-entry checksum) so compression sweeps and
     * serve cold-starts survive restarts and are shared across
     * processes pointed at the same directory. Results never depend
     * on this knob — a disk hit is bit-identical to a recompute.
     */
    std::string cacheDir;
    /**
     * Failpoint arming spec (SE_FAILPOINTS = name:policy,... with
     * policies once | 1inN | afterN | pF[@seed]), strictly parsed by
     * fromEnv — a malformed spec refuses to start instead of silently
     * not injecting. Empty arms nothing. Takes effect through
     * applyFailpoints(); see base/failpoint.hh.
     */
    std::string failpoints;

    /** Install kernelIsa, when set, as the process-wide ISA. */
    void
    applyKernelConfig() const
    {
        if (kernelIsa)
            kernels::setActiveIsa(*kernelIsa);
    }

    /**
     * Arm exactly the failpoints of `failpoints` process-wide
     * (disarming anything armed before). Driver binaries call this
     * next to applyKernelConfig() so SE_FAILPOINTS reaches the
     * library's injection sites.
     */
    void
    applyFailpoints() const
    {
        failpoint::armFromSpec(failpoints);
    }

    /** The thread count after resolving the "per core" sentinel. */
    int
    resolvedThreads() const
    {
        if (threads >= 0)
            return threads;
        const unsigned hc = std::thread::hardware_concurrency();
        return hc > 0 ? (int)hc : 1;
    }

    /**
     * The convention every driver binary shares: one worker per core
     * and a warm cache, with SE_THREADS in the environment overriding
     * the thread count (0 = legacy serial path). Results never depend
     * on that value — it only moves wall-clock.
     *
     * Every SE_* knob is parsed strictly: a value that is not fully
     * recognized throws std::invalid_argument instead of being
     * silently coerced to a default.
     */
    static RuntimeOptions
    fromEnv(size_t cache_capacity = 4096)
    {
        RuntimeOptions ro;
        // SE_THREADS shares the kernel pool's strict parser.
        ro.threads = kernels::threadsFromEnv();
        ro.cacheCapacity = cache_capacity;
        // parseKernelIsa throws std::invalid_argument on anything it
        // does not recognize, matching the other knobs' strictness.
        if (const char *isa = std::getenv("SE_KERNEL_ISA"))
            ro.kernelIsa = kernels::parseKernelIsa(isa);
        if (const char *c = std::getenv("SE_SERVE_QUEUE_CAP")) {
            const long long cap =
                envInt("SE_SERVE_QUEUE_CAP", c);
            if (cap < 0)
                throw std::invalid_argument(
                    "SE_SERVE_QUEUE_CAP must be >= 0, got '" +
                    std::string(c) + "'");
            ro.serveQueueCap = (size_t)cap;
        }
        if (const char *d = std::getenv("SE_SERVE_DEADLINE_MS"))
            ro.serveDeadlineMs =
                envDouble("SE_SERVE_DEADLINE_MS", d);
        if (const char *d = std::getenv("SE_CACHE_DIR")) {
            if (*d == '\0')
                throw std::invalid_argument(
                    "SE_CACHE_DIR must name a directory (unset it "
                    "to disable the persistent cache)");
            ro.cacheDir = d;
        }
        if (const char *fp = std::getenv("SE_FAILPOINTS")) {
            // Validate the whole spec now — a typo'd policy must
            // refuse the run, not silently skip injection.
            failpoint::parseSpec(fp);
            ro.failpoints = fp;
        }
        return ro;
    }
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_OPTIONS_HH
