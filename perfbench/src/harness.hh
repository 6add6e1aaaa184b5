/**
 * @file
 * The benchmark harness's generic parts: seeded inputs, latency
 * summaries, in-memory spans, and the closed-loop load generator.
 * Nothing here knows about ServeFront, so the self-tests drive the
 * same code against a fake server.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tensor/tensor.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * SplitMix64. The benchmark's only randomness: it is fully specified
 * by its seed on every compiler and standard library, unlike the
 * std:: distributions.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    uint64_t s_;
};

/** `count` request inputs of `shape`, uniform in [-2, 2) on a 2^-22
 *  grid (exact in float, so the bytes depend on the seed alone). */
std::vector<se::Tensor> makeInputs(uint64_t seed, size_t count,
                                   const se::Shape &shape);

/**
 * A latency sample reduced the way the benchmark reports it, all at
 * nearest rank: the median; the 99th percentile, which exists only
 * when at least 10 samples lie beyond it (1000 samples or more); and,
 * for the info line, the highest of {99.9, 99, 95, 90, 75, 50} with
 * at least 10 samples beyond it.
 */
struct Summary
{
    size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    bool hasP99 = false;
    double p99 = 0.0;      ///< 0 unless hasP99
    double tailPct = 0.0;  ///< 0 when fewer than 11 samples
    double tail = 0.0;
    size_t beyond = 0;     ///< samples strictly after the tail rank
};

Summary summarize(std::vector<double> samples);

/** Median of a sample (0 for an empty one). */
double median(std::vector<double> v);

/**
 * In-memory spans, written out at exit as Chrome trace-event JSON.
 * A null Tracer* means tracing is off; every recording site checks
 * the pointer, so the untraced run does no span work at all.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin_(origin) {}

    /** Reserve an id so children can name a parent recorded later. */
    uint32_t reserve();

    /** Record a finished span; `req` < 0 when not request-scoped. */
    uint32_t record(const char *name, Clock::time_point t0,
                    Clock::time_point t1, uint32_t parent = 0,
                    int64_t req = -1, uint32_t id = 0);

    size_t size() const;
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        double t0Us, t1Us;
        uint32_t id, parent;
        int64_t req;
        uint64_t tid;
    };

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    uint32_t nextId_ = 1;
};

/**
 * A run cut into equal spans of answer time. Host load drifts over
 * seconds, so the medians of per-window throughput and per-window p99
 * read steadier than whole-run figures, which one noisy stretch can
 * move. Each window's p99 is its own 99th percentile (Summary::p99).
 */
struct Windowed
{
    size_t windows = 0;  ///< 0: not even one window supports a p99
    double rps = 0.0;    ///< median over windows
    double p99 = 0.0;    ///< median over windows
    std::vector<double> windowRps, windowP99;
};

/** At most `maxWindows` windows of at least `minWindowS` seconds;
 *  fewer when a window would hold too few samples for a p99. */
Windowed windowed(const std::vector<double> &latencyMs,
                  const std::vector<double> &doneS, double elapsedS,
                  size_t maxWindows, double minWindowS);

/** What one closed-loop run observed. */
struct LoopResult
{
    uint64_t attempted = 0;
    uint64_t succeeded = 0;   ///< answered and bit-identical
    uint64_t failed = 0;      ///< submit threw or the future did
    uint64_t mismatched = 0;  ///< answered with the wrong bits
    std::vector<double> latencyMs;  ///< per answered request, in answer order
    std::vector<uint64_t> latencyReq;
    std::vector<double> doneS;  ///< its answer time, from loop start
    std::vector<double> submitUs;  ///< time inside the submit call
    double elapsedS = 0.0;  ///< first submit to last response
};

/**
 * Closed loop from one thread: keep `window` requests in flight and
 * send the next request as soon as any one returns. Stops submitting
 * at `deadline` or after `maxRequests`, then drains. Latency is submit
 * to the moment the loop holds the response. The loop polls every
 * in-flight future, so a response that is ready is collected at once
 * even while an older request is still being served; waiting on the
 * oldest instead would charge its delay to every request behind it.
 *
 * submit(req) -> std::future<se::Tensor>  (may throw)
 * check(req, const se::Tensor &) -> bool  (true = correct bits)
 */
template <class Submit, class Check>
LoopResult
runClosedLoop(size_t window, Clock::time_point deadline,
              uint64_t maxRequests, Submit &&submit, Check &&check,
              Tracer *tr = nullptr, uint32_t parent = 0)
{
    struct InFlight
    {
        uint64_t req;
        Clock::time_point t0;
        std::future<se::Tensor> fut;
        uint32_t span;
    };
    LoopResult r;
    std::vector<InFlight> q;
    q.reserve(window);
    uint64_t next = 0;
    const auto start = Clock::now();
    auto last = start;
    auto refill = [&] {
        while (q.size() < window && next < maxRequests &&
               Clock::now() < deadline) {
            const uint64_t req = next++;
            ++r.attempted;
            const uint32_t span = tr ? tr->reserve() : 0;
            const auto t0 = Clock::now();
            try {
                auto fut = submit(req);
                const auto t1 = Clock::now();
                r.submitUs.push_back(1000.0 * msBetween(t0, t1));
                if (tr)
                    tr->record("front.submit", t0, t1, span,
                               (int64_t)req);
                q.push_back({req, t0, std::move(fut), span});
            } catch (...) {
                ++r.failed;
            }
        }
    };
    refill();
    while (!q.empty()) {
        // Poll rather than block: the client's wake-up would sit on
        // the path of every request it refills, and on a VM whose idle
        // vCPUs halt it costs up to milliseconds. The load thread owns
        // its own core.
        bool any = false;
        for (size_t i = 0; i < q.size();) {
            if (q[i].fut.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready) {
                ++i;
                continue;
            }
            any = true;
            InFlight f = std::move(q[i]);
            q[i] = std::move(q.back());
            q.pop_back();
            try {
                se::Tensor y = f.fut.get();
                last = Clock::now();
                r.latencyMs.push_back(msBetween(f.t0, last));
                r.latencyReq.push_back(f.req);
                r.doneS.push_back(msBetween(start, last) / 1000.0);
                if (check(f.req, y))
                    ++r.succeeded;
                else
                    ++r.mismatched;
            } catch (...) {
                last = Clock::now();
                ++r.failed;
            }
            if (tr)
                tr->record("request", f.t0, last, parent,
                           (int64_t)f.req, f.span);
        }
        if (any)
            refill();
        else
            std::this_thread::yield();
    }
    r.elapsedS = msBetween(start, last) / 1000.0;
    return r;
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
