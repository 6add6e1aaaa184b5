/**
 * @file
 * Self-tests of the benchmark harness, run by run.py before every
 * measurement: the percentile helper and window medians, seeded
 * inputs, and the closed loop's latency accounting against a fake server
 * that stalls once. Exit 0 when all pass.
 */

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "base/hash.hh"
#include "harness.hh"

namespace pb = perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

void
testSummary()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back((double)i);
    pb::Summary s = pb::summarize(v);
    expect(s.count == 1000 && s.p50 == 500.0, "median of 1..1000");
    // The 99th rank leaves exactly 10 samples beyond it; 99.9 leaves 1.
    expect(s.hasP99 && s.p99 == 990.0, "p99 at n=1000");
    expect(s.tailPct == 99.0 && s.tail == 990.0 && s.beyond == 10,
           "p99 is the highest tail with 10 beyond at n=1000");

    v.pop_back();  // n = 999: the 99th rank leaves only 9 beyond
    s = pb::summarize(v);
    expect(!s.hasP99 && s.p99 == 0.0, "no p99 when 9 lie beyond it");
    expect(s.tailPct == 95.0 && s.beyond >= 10,
           "the highest tail falls back to p95 when p99 has 9 beyond");

    v.clear();
    for (int i = 1; i <= 10000; ++i)
        v.push_back((double)i);
    s = pb::summarize(v);
    expect(s.hasP99 && s.p99 == 9900.0,
           "p99 stays the 99th rank when 99.9 has 10 beyond");
    expect(s.tailPct == 99.9 && s.tail == 9990.0 && s.beyond == 10,
           "the highest tail moves to p99.9 at n=10000");

    s = pb::summarize({3.0, 1.0, 2.0});
    expect(s.count == 3 && s.p50 == 2.0 && s.tailPct == 0.0,
           "no tail percentile below 11 samples");
    expect(pb::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median");

    // 30 s of answers, one window of them ten times slower.
    std::vector<double> lat, done;
    for (int i = 0; i < 12000; ++i) {
        done.push_back(30.0 * (i + 0.5) / 12000);
        lat.push_back(done.back() < 5.0 ? 10.0 : 1.0);
    }
    pb::Windowed w = pb::windowed(lat, done, 30.0, 6, 5.0);
    expect(w.windows == 6 && std::abs(w.rps - 400.0) < 1e-6 &&
               w.p99 == 1.0,
           "the window median ignores one slow window");
    lat.resize(5000);
    done.resize(5000);
    for (int i = 0; i < 5000; ++i)
        done[i] = 30.0 * (i + 0.5) / 5000;
    w = pb::windowed(lat, done, 30.0, 6, 5.0);
    expect(w.windows == 5, "fewer windows when one cannot hold a p99");

    // Six windows of 10000 answers each, latencies 1..10000 ms in
    // every window: 99.9 has 10 samples beyond it, yet each window's
    // p99 must stay the 99th rank.
    lat.clear();
    done.clear();
    for (int i = 0; i < 60000; ++i) {
        done.push_back(30.0 * (i + 0.5) / 60000);
        lat.push_back((double)((i * 7919) % 10000 + 1));
    }
    w = pb::windowed(lat, done, 30.0, 6, 5.0);
    expect(w.windows == 6 && w.windowP99.size() == 6 &&
               std::all_of(w.windowP99.begin(), w.windowP99.end(),
                           [](double p) { return p == 9900.0; }) &&
               w.p99 == 9900.0,
           "a window of 10000 samples reports its p99, not its p99.9");
}

uint64_t
digest(const std::vector<se::Tensor> &xs)
{
    uint64_t h = se::kFnvOffsetBasis;
    for (const auto &x : xs)
        h = se::hashTensor(x, h);
    return h;
}

void
testSeededInputs()
{
    const auto a = pb::makeInputs(7, 16, {3, 8, 8});
    const auto b = pb::makeInputs(7, 16, {3, 8, 8});
    const auto c = pb::makeInputs(8, 16, {3, 8, 8});
    expect(digest(a) == digest(b), "same seed, same input bytes");
    expect(digest(a) != digest(c), "another seed, other input bytes");
    // Pinned: a change here silently changes every workload's inputs.
    if (digest(a) != 0x0bfbc2a2f3aa60a0ULL)
        std::fprintf(stderr, "input digest 0x%016llx\n",
                     (unsigned long long)digest(a));
    expect(digest(a) == 0x0bfbc2a2f3aa60a0ULL, "input generator matches its pin");
    float lo = 0, hi = 0;
    for (const auto &x : a)
        for (int64_t i = 0; i < x.size(); ++i) {
            lo = std::min(lo, x.data()[i]);
            hi = std::max(hi, x.data()[i]);
        }
    expect(lo >= -2.0f && hi < 2.0f && hi - lo > 3.9f,
           "inputs span [-2, 2)");

}

/** Answers FIFO from one thread; request `stallAt` takes `stallMs`. */
class FakeServer
{
  public:
    FakeServer(uint64_t stallAt, double stallMs)
        : stallAt_(stallAt), stallMs_(stallMs),
          worker_([this] { run(); })
    {
    }

    ~FakeServer()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            done_ = true;
        }
        cv_.notify_all();
        worker_.join();
    }

    FakeServer(const FakeServer &) = delete;
    FakeServer &operator=(const FakeServer &) = delete;

    std::future<se::Tensor>
    submit(uint64_t req)
    {
        std::promise<se::Tensor> p;
        auto f = p.get_future();
        {
            std::lock_guard<std::mutex> lk(mu_);
            q_.push_back({req, std::move(p)});
        }
        cv_.notify_all();
        return f;
    }

  private:
    void
    run()
    {
        for (;;) {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this] { return done_ || !q_.empty(); });
            if (q_.empty())
                return;
            auto job = std::move(q_.front());
            q_.pop_front();
            lk.unlock();
            if (job.first == stallAt_)
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(stallMs_));
            job.second.set_value(se::Tensor({1}, (float)job.first));
        }
    }

    uint64_t stallAt_;
    double stallMs_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::pair<uint64_t, std::promise<se::Tensor>>> q_;
    bool done_ = false;
    std::thread worker_;  ///< last: starts after the state it uses
};

void
testStallShowsBehind()
{
    constexpr size_t kWindow = 8;
    constexpr uint64_t kStallAt = 100;
    constexpr double kStallMs = 40.0;
    FakeServer server(kStallAt, kStallMs);
    const auto r = pb::runClosedLoop(
        kWindow, pb::Clock::time_point::max(), 300,
        [&](uint64_t q) { return server.submit(q); },
        [](uint64_t q, const se::Tensor &y) {
            return y.size() == 1 && y.data()[0] == (float)q;
        });
    expect(r.attempted == 300 && r.succeeded == 300 && r.failed == 0,
           "fake server answers every request correctly");
    // The stalled request and the window-1 requests queued behind it
    // all wait out the stall; nothing else does.
    size_t stalled = 0;
    bool onlyBehind = true;
    for (size_t i = 0; i < r.latencyMs.size(); ++i)
        if (r.latencyMs[i] >= 0.9 * kStallMs) {
            ++stalled;
            onlyBehind &= r.latencyReq[i] >= kStallAt &&
                          r.latencyReq[i] < kStallAt + kWindow;
        }
    expect(stalled == kWindow && onlyBehind,
           "the stall shows in exactly the requests queued behind it");
    const pb::Summary s = pb::summarize(r.latencyMs);
    expect(s.p50 < 0.25 * kStallMs, "the median stays clear of the stall");
}

} // namespace

int
main()
{
    testSummary();
    testSeededInputs();
    testStallShowsBehind();
    if (failures)
        return 1;
    std::printf("perfbench selftest: ok\n");
    return 0;
}
