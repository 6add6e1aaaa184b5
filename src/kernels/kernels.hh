/**
 * @file
 * Process-wide state of the se::kernels layer: the shared thread pool
 * the blocked GEMM fans out over, and the SerialScope that keeps
 * outer fan-out layers off it.
 *
 * SE_THREADS sets the pool width when the pool is first used: 0 or 1
 * => one worker (serial), negative or unset => one worker per core
 * (the RuntimeOptions convention). A malformed value throws.
 *
 * Every kernel is deterministic and thread-count invariant: each
 * output element is accumulated by exactly one worker in a fixed
 * ascending-k order, so SE_THREADS only moves wall-clock.
 */

#ifndef SE_KERNELS_KERNELS_HH
#define SE_KERNELS_KERNELS_HH

#include <cstdint>

#include "base/thread_pool.hh"

namespace se {
namespace kernels {

/**
 * Parse SE_THREADS strictly: unset means -1 ("one worker per core");
 * anything that is not a whole int with no trailing characters
 * (SE_THREADS=four, 4x, "", 4294967296) throws std::invalid_argument.
 * The one parser behind both the kernel pool and
 * RuntimeOptions::fromEnv; each caller maps the value itself.
 */
int threadsFromEnv();

/**
 * The shared kernel pool, lazily built with SE_THREADS workers.
 * Distinct from the serve/pipeline pools: those fan out whole tasks
 * (requests, per-matrix decompositions) and their workers block on
 * this pool's GEMM panels only through the nested-parallelism guard
 * or a SerialScope.
 */
ThreadPool &pool();

/**
 * Resize the kernel pool (test hook). Must not race in-flight
 * kernels; results are identical for any width by construction.
 */
void configureThreads(int threads);

/**
 * RAII suppression of kernel-level parallelism on this thread.
 * Outer fan-out layers (ServeEngine replicas, CompressionPipeline
 * units) wrap their per-task work in one so replica/unit parallelism
 * does not fight panel parallelism for the same cores.
 */
class SerialScope
{
  public:
    SerialScope();
    ~SerialScope();
    SerialScope(const SerialScope &) = delete;
    SerialScope &operator=(const SerialScope &) = delete;

  private:
    bool prev_;
};

/** True while a SerialScope is live on the calling thread. */
bool serialScopeActive();

/**
 * Fan fn(i), i in [0, n), over the kernel pool — or run inline when
 * the pool is serial, a SerialScope is active, or the caller already
 * is a kernel-pool worker.
 */
void parallelFor(int64_t n, const std::function<void(int64_t)> &fn);

} // namespace kernels
} // namespace se

#endif // SE_KERNELS_KERNELS_HH
