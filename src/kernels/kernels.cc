#include "kernels/kernels.hh"

#include <climits>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/env.hh"
#include "base/mutex.hh"

namespace se {
namespace kernels {

namespace {

base::Mutex g_pool_mu;
/** The live pool. Only the pointer is guarded: pool() hands out a
 *  reference that callers use off-lock, which is safe because a pool
 *  is never destroyed mid-process — configureThreads() retires the
 *  old one into g_retired_pools instead of deleting it under a
 *  caller still fanning work onto it. */
std::unique_ptr<ThreadPool> g_pool SE_GUARDED_BY(g_pool_mu);
/** Replaced pools, kept alive until exit (see above). A test suite
 *  reconfiguring thread counts leaks a handful of idle workers at
 *  most; correctness beats that footprint. */
std::vector<std::unique_ptr<ThreadPool>> g_retired_pools
    SE_GUARDED_BY(g_pool_mu);

/** Pool width for an SE_THREADS value: negative => one worker per
 *  core, 0 => one worker. */
int
poolWidth(int threads)
{
    if (threads < 0) {
        const unsigned hc = std::thread::hardware_concurrency();
        threads = hc > 0 ? (int)hc : 1;
    }
    return threads < 1 ? 1 : threads;
}

bool &
serialFlag()
{
    static thread_local bool flag = false;
    return flag;
}

} // namespace

int
threadsFromEnv()
{
    const char *t = std::getenv("SE_THREADS");
    if (!t)
        return -1;
    const long long v = envInt("SE_THREADS", t);
    // Reject before narrowing: SE_THREADS=4294967296 must not wrap to
    // 0 and silently select the serial path.
    if (v < INT_MIN || v > INT_MAX)
        throw std::invalid_argument("SE_THREADS out of range: '" +
                                    std::string(t) + "'");
    return (int)v;
}

ThreadPool &
pool()
{
    base::LockGuard lk(g_pool_mu);
    if (!g_pool)
        g_pool =
            std::make_unique<ThreadPool>(poolWidth(threadsFromEnv()));
    return *g_pool;
}

void
configureThreads(int threads)
{
    base::LockGuard lk(g_pool_mu);
    // Retire, don't destroy: a concurrent parallelFor() may hold the
    // reference pool() returned before this call took the lock, and
    // destroying the pool under it would join workers mid-submit (a
    // use-after-free TSan catches). The old pool drains naturally and
    // idles until process exit.
    if (g_pool)
        g_retired_pools.push_back(std::move(g_pool));
    g_pool = std::make_unique<ThreadPool>(poolWidth(threads));
}

SerialScope::SerialScope() : prev_(serialFlag())
{
    serialFlag() = true;
}

SerialScope::~SerialScope()
{
    serialFlag() = prev_;
}

bool
serialScopeActive()
{
    return serialFlag();
}

void
parallelFor(int64_t n, const std::function<void(int64_t)> &fn)
{
    if (n <= 0)
        return;
    if (serialScopeActive()) {
        for (int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    pool().parallelFor(n, fn);
}

} // namespace kernels
} // namespace se
