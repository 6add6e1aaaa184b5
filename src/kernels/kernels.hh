/**
 * @file
 * Process-wide state of the se::kernels layer: the shared thread pool
 * the blocked GEMM fans out over, and the SerialScope that keeps
 * outer fan-out layers off it.
 *
 * SE_THREADS sets the pool width when the pool is first used: 0 or 1
 * => one worker (serial), negative or unset => one worker per core.
 * A malformed value throws. This is the process's one width control:
 * the GEMM panels, CompressionPipeline's units and runtime::sweep's
 * cells all fan out here.
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
 * The one parser of SE_THREADS: pool() sizes itself with it and
 * RuntimeOptions::fromEnv calls it to reject a typo early.
 */
int threadsFromEnv();

/**
 * The shared kernel pool, lazily built with SE_THREADS workers. It
 * runs both GEMM panels and whole tasks (CompressionPipeline's
 * per-matrix decompositions, runtime::sweep's cells); a task that
 * reaches a GEMM runs it inline through the nested-parallelism guard
 * or a SerialScope. ServeEngine keeps a pool of its own for requests.
 */
ThreadPool &pool();

/**
 * Resize the kernel pool, mapping `threads` exactly as SE_THREADS is
 * mapped (negative => one worker per core, 0 => one worker). Must
 * not race in-flight kernels; results are identical for any width by
 * construction.
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
