#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

std::vector<se::Tensor>
makeInputs(uint64_t seed, size_t count, const se::Shape &shape)
{
    SplitMix64 rng(seed ^ 0x1ee7a11c0ffee000ULL);
    std::vector<se::Tensor> xs;
    xs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        se::Tensor t(shape);
        for (int64_t j = 0; j < t.size(); ++j)
            t.data()[j] =
                (float)((int64_t)(rng.next() >> 40) - (1 << 23)) *
                0x1.0p-22f;
        xs.push_back(std::move(t));
    }
    return xs;
}

Summary
summarize(std::vector<double> v)
{
    Summary s;
    s.count = v.size();
    if (v.empty())
        return s;
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (double x : v)
        sum += x;
    s.mean = sum / (double)v.size();
    const size_t n = v.size();
    auto rank = [n](double pct) {
        // Nearest rank: the smallest index whose cumulative share
        // reaches pct. Counted in tenths of a percent, in integers,
        // so 99.9% of 10000 is exactly rank 9990.
        const size_t tenths = (size_t)std::lround(pct * 10.0);
        const size_t k = (tenths * n + 999) / 1000;
        return std::max<size_t>(k, 1) - 1;
    };
    s.p50 = v[rank(50.0)];
    if (n - 1 - rank(99.0) >= 10) {
        s.hasP99 = true;
        s.p99 = v[rank(99.0)];
    }
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const size_t k = rank(pct);
        if (n - 1 - k >= 10) {
            s.tailPct = pct;
            s.tail = v[k];
            s.beyond = n - 1 - k;
            break;
        }
    }
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Windowed
windowed(const std::vector<double> &latencyMs,
         const std::vector<double> &doneS, double elapsedS,
         size_t maxWindows, double minWindowS)
{
    size_t w = std::min(maxWindows, (size_t)(elapsedS / minWindowS));
    for (w = std::max<size_t>(w, 1); w >= 1; --w) {
        const double span = elapsedS / (double)w;
        std::vector<std::vector<double>> lat(w);
        for (size_t i = 0; i < latencyMs.size(); ++i)
            lat[std::min(w - 1, (size_t)(doneS[i] / span))].push_back(
                latencyMs[i]);
        std::vector<double> rps, p99;
        for (auto &l : lat) {
            const Summary s = summarize(l);
            if (!s.hasP99)
                break;
            rps.push_back((double)l.size() / span);
            p99.push_back(s.p99);
        }
        if (rps.size() == w)
            return {w, median(rps), median(p99), rps, p99};
    }
    return {};
}

uint32_t
Tracer::reserve()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

uint32_t
Tracer::record(const char *name, Clock::time_point t0,
               Clock::time_point t1, uint32_t parent, int64_t req,
               uint32_t id)
{
    const uint64_t tid =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lk(mu_);
    if (id == 0)
        id = nextId_++;
    spans_.push_back({name, 1000.0 * msBetween(origin_, t0),
                      1000.0 * msBetween(origin_, t1), id, parent, req,
                      tid});
    return id;
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    // Chrome trace-event "complete" events; small thread numbers in
    // first-seen order keep the viewer's lanes readable.
    std::vector<uint64_t> tids;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto it = std::find(tids.begin(), tids.end(), s.tid);
        const size_t lane = (size_t)(it - tids.begin());
        if (it == tids.end())
            tids.push_back(s.tid);
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%u,\"parent\":%u,\"req\":%lld}}\n",
                     i ? "," : "", s.name, lane, s.t0Us,
                     s.t1Us - s.t0Us, s.id, s.parent, (long long)s.req);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
