/**
 * @file
 * Shared knobs of the se::runtime layer.
 */

#ifndef SE_RUNTIME_OPTIONS_HH
#define SE_RUNTIME_OPTIONS_HH

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "base/env.hh"
#include "base/failpoint.hh"
#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"

namespace se {
namespace runtime {

/**
 * Every SE_* environment variable libse reads. RuntimeOptions::fromEnv
 * refuses any other SE_* name, so a retired or misspelled knob stops
 * the run instead of being silently ignored.
 */
inline constexpr std::array<const char *, 6> kLiveKnobs{
    "SE_THREADS",           "SE_KERNEL_ISA", "SE_SERVE_QUEUE_CAP",
    "SE_SERVE_DEADLINE_MS", "SE_CACHE_DIR",  "SE_FAILPOINTS"};

/**
 * Execution policy for the runtime drivers. Pool width and kernel ISA
 * are not here: SE_THREADS (kernels::configureThreads) and
 * SE_KERNEL_ISA (kernels::setActiveIsa) are their only controls.
 */
struct RuntimeOptions
{
    /**
     * Decomposition-cache capacity in entries; 0 disables caching.
     * Repeated sweeps (ablations, design-space scans) with identical
     * (weights, options) inputs then skip the ALS loop entirely.
     */
    size_t cacheCapacity = 0;
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

    /**
     * Arm exactly the failpoints of `failpoints` process-wide
     * (disarming anything armed before). Driver binaries call this
     * after fromEnv() so SE_FAILPOINTS reaches the library's
     * injection sites.
     */
    void
    applyFailpoints() const
    {
        failpoint::armFromSpec(failpoints);
    }

    /**
     * The convention every driver binary shares: a warm cache plus
     * the SE_* knobs of the environment.
     *
     * Every SE_* variable is checked strictly: a name outside
     * kLiveKnobs, or a value that is not fully recognized, throws
     * std::invalid_argument instead of being silently ignored or
     * coerced to a default. SE_THREADS and SE_KERNEL_ISA are only
     * validated here; the kernel pool and dispatch read them
     * themselves.
     */
    static RuntimeOptions
    fromEnv(size_t cache_capacity = 4096)
    {
        refuseUnknownKnobs();
        kernels::threadsFromEnv();
        if (const char *isa = std::getenv("SE_KERNEL_ISA"))
            kernels::parseKernelIsa(isa);
        RuntimeOptions ro;
        ro.cacheCapacity = cache_capacity;
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

  private:
    /** Throw for the first SE_* variable that is not a live knob. */
    static void
    refuseUnknownKnobs()
    {
        for (char **e = environ; *e; ++e) {
            const std::string var(*e);
            if (var.compare(0, 3, "SE_") != 0)
                continue;
            const std::string name = var.substr(0, var.find('='));
            if (std::find(kLiveKnobs.begin(), kLiveKnobs.end(), name) ==
                kLiveKnobs.end())
                throw std::invalid_argument(
                    "unknown SE_* variable " + name +
                    " (not a live knob; unset it)");
        }
    }
};

} // namespace runtime
} // namespace se

#endif // SE_RUNTIME_OPTIONS_HH
