/**
 * @file
 * perfbench — the repository benchmark.
 *
 * Serves VGG19-sim (width 24, 3x8x8 input) from a v4 bundle through
 * serve::ServeFront with CeDirect weights, three replicas, batches of
 * up to 16 and the Greedy flush, under one of two closed-loop
 * workloads:
 *
 *  - batch-percall: 64 in flight, every batch's forward rebuilds
 *    W = Ce*B with no weight cache (the paper's no-dense-storage
 *    point, rebuild amortized over a batch);
 *  - batch-cached: 64 in flight, rebuilt weights cached (throughput).
 *
 * Every response is checked bit for bit against a plain Dense
 * InferenceSession reference built at set-up. The untraced run
 * (--trace 0) prints the end-to-end metrics; the traced run
 * (--trace 1) prints the per-layer metrics, measured by timing calls
 * into each module's public functions and reading its public stats
 * structs — nothing in src/ is instrumented.
 *
 * Usage:
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --workdir <dir> [--trace-out <file.json>]
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. Exit status: 0 ok, 1 a response or replay output
 * differed from its reference, 2 bad usage or an SE_* variable set,
 * 3 the run was too short to support a p99.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model_file.hh"
#include "core/stream_loader.hh"
#include "harness.hh"
#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"
#include "models/zoo.hh"
#include "nn/layers.hh"
#include "runtime/pipeline.hh"
#include "serve/front.hh"
#include "serve/session.hh"

extern char **environ;

namespace {

using namespace se;
using perfbench::Clock;
using perfbench::msBetween;
using perfbench::Tracer;

const auto kProcessStart = Clock::now();

// ------------------------------------------------------------ subject

constexpr int64_t kBaseWidth = 24;
constexpr int64_t kSide = 8;
constexpr size_t kPoolInputs = 32;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 5;

struct ModelSpec
{
    const char *id;
    models::ModelId arch;
    uint64_t seed;
};

const ModelSpec kModel{"vgg19-77", models::ModelId::VGG19, 77};

struct WorkloadSpec
{
    const char *name;
    size_t window;        ///< requests in flight
    bool rebuildPerCall;  ///< per-call Ce*B rebuild, no weight cache
};

const WorkloadSpec kWorkloads[] = {
    {"batch-percall", 64, true},
    {"batch-cached", 64, false},
};

/** Untimed requests at the end of each set-up. */
constexpr uint64_t kWarmup = 512;
/** reload_ms comes from this many reloads of the idle front after the
 *  timed phase, spaced at about twice a three-replica reload so the
 *  schedule never runs late. */
constexpr size_t kIdleReloads = 40;
constexpr double kIdleReloadPeriodMs = 100.0;
/** throughput_rps and p99_ms are medians over windows of the timed
 *  phase (see perfbench::windowed). */
constexpr size_t kMaxWindows = 6;
constexpr double kMinWindowS = 2.0;

models::SimConfig
simConfig(uint64_t seed)
{
    models::SimConfig cfg;
    cfg.baseWidth = kBaseWidth;
    cfg.inHeight = cfg.inWidth = kSide;
    cfg.seed = seed;
    return cfg;
}

serve::NetFactory
factoryFor(const ModelSpec &m)
{
    return [m] { return models::buildSim(m.arch, simConfig(m.seed)); };
}

/** bench_serve's operating point (Table II's vector sparsity). */
core::SeOptions
seOptions()
{
    core::SeOptions o;
    o.vectorThreshold = 0.01;
    o.minVectorSparsity = 0.5;
    return o;
}

/** Computed Ce*B rebuild FLOPs of one rebuild-all: every non-zero Ce
 *  row times the r x n basis, one multiply and one add per term. */
double
rebuildFlops(const std::vector<core::SeLayerRecord> &records)
{
    double flops = 0.0;
    for (const auto &rec : records)
        for (const auto &p : rec.pieces) {
            const int64_t m = p.ce.dim(0), r = p.ce.dim(1);
            const int64_t n = p.basis.dim(1);
            int64_t rows = 0;
            for (int64_t i = 0; i < m; ++i) {
                const float *row = p.ce.data() + i * r;
                rows += std::any_of(row, row + r,
                                    [](float v) { return v != 0.0f; });
            }
            flops += 2.0 * (double)rows * (double)r * (double)n;
        }
    return flops;
}

/**
 * The load generator gets the last CPU of the process's mask and the
 * server the rest, so the polling client never time-slices with a
 * replica. Threads inherit their creator's mask: the main thread sits
 * on the server set except while it drives load, so every engine,
 * pool and writer thread it creates lands on the server set.
 */
struct CpuSplit
{
    bool on = false;  ///< false with fewer than two CPUs
    cpu_set_t server, load;
    int loadCpu = -1;
};

CpuSplit
splitCpus()
{
    CpuSplit c;
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2)
        return c;
    for (int i = 0; i < CPU_SETSIZE; ++i)
        if (CPU_ISSET(i, &all))
            c.loadCpu = i;
    c.server = all;
    CPU_CLR(c.loadCpu, &c.server);
    CPU_ZERO(&c.load);
    CPU_SET(c.loadCpu, &c.load);
    c.on = true;
    return c;
}

/** Move the calling thread onto `set` for this scope's lifetime. */
class PinScope
{
  public:
    PinScope(const CpuSplit &c, bool load) : c_(c)
    {
        if (c_.on)
            sched_setaffinity(0, sizeof(cpu_set_t), load ? &c_.load
                                                         : &c_.server);
    }
    ~PinScope()
    {
        if (c_.on)
            sched_setaffinity(0, sizeof(cpu_set_t), &c_.server);
    }
    PinScope(const PinScope &) = delete;
    PinScope &operator=(const PinScope &) = delete;

  private:
    const CpuSplit &c_;
};

// -------------------------------------------------------------- state

struct Args
{
    const WorkloadSpec *wl = nullptr;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string traceOut;
};

/** The served model of the current set-up. */
struct Served
{
    std::string path;
    uint64_t bytes = 0;
    std::vector<Tensor> refs;  ///< Dense reference per pool input
    double rebuildFlops = 0.0;
};

struct SetupTimes
{
    double compressMs = 0, saveMs = 0, warmupS = 0, totalS = 0;
};

struct Bench
{
    Args args;
    std::vector<Tensor> inputs;
    Served served;
    std::unique_ptr<serve::ServeFront> front;
    Tracer *tr = nullptr;
    CpuSplit cpus;
    uint64_t mismatched = 0;  ///< every checked response, warm-up too

    std::future<Tensor>
    submit(uint64_t req)
    {
        return front->submit(kModel.id, inputs[req % inputs.size()]);
    }

    bool
    check(uint64_t req, const Tensor &y) const
    {
        const Tensor &ref = served.refs[req % inputs.size()];
        return y.size() == ref.size() &&
               std::memcmp(y.data(), ref.data(),
                           sizeof(float) * (size_t)y.size()) == 0;
    }

    perfbench::LoopResult
    loop(Clock::time_point deadline, uint64_t maxRequests,
         uint32_t parent = 0)
    {
        PinScope pin(cpus, /*load=*/true);
        auto r = perfbench::runClosedLoop(
            args.wl->window, deadline, maxRequests,
            [this](uint64_t q) { return submit(q); },
            [this](uint64_t q, const Tensor &y) { return check(q, y); },
            tr, parent);
        mismatched += r.mismatched;
        return r;
    }

    serve::ModelEntry
    openEntry() const
    {
        return serve::makeModelEntry(
            std::make_shared<core::StreamedModel>(served.path),
            factoryFor(kModel), seOptions(),
            core::ApplyOptions{}, serve::WeightSource::CeDirect);
    }
};

uint32_t
span(Bench &b, const char *name, Clock::time_point t0, uint32_t parent)
{
    return b.tr ? b.tr->record(name, t0, Clock::now(), parent) : 0;
}

/**
 * Compress, save, open, build references, construct the front and
 * warm it up. Each set-up is timed from its own start; the previous
 * set-up's front is torn down before it.
 */
SetupTimes
setUp(Bench &b)
{
    SetupTimes st;
    b.front.reset();
    b.served = Served{};
    const auto t0 = Clock::now();
    const uint32_t root = b.tr ? b.tr->reserve() : 0;
    const core::SeOptions se_opts = seOptions();
    Served &s = b.served;
    s.path = b.args.workdir + "/" + kModel.id + ".sexm";

    auto t = Clock::now();
    auto net = models::buildSim(kModel.arch, simConfig(kModel.seed));
    runtime::CompressionPipeline pipe{runtime::RuntimeOptions{}};
    auto comp = core::compressToRecords(
        *net, se_opts, core::ApplyOptions{},
        [&pipe](const Tensor &w, const core::SeOptions &o) {
            return pipe.cache().getOrCompute(w, o);
        });
    core::quantizeBasisAtCompress(comp.records);
    st.compressMs = msBetween(t, Clock::now());
    span(b, "runtime.compress", t, root);

    t = Clock::now();
    {
        std::ostringstream os(std::ios::binary);
        core::saveModelV4(os, comp.records, comp.dense);
        const std::string bytes = os.str();
        std::ofstream f(s.path, std::ios::binary | std::ios::trunc);
        f.write(bytes.data(), (std::streamsize)bytes.size());
        if (!f)
            throw std::runtime_error("cannot write " + s.path);
        s.bytes = bytes.size();
    }
    st.saveMs = msBetween(t, Clock::now());
    span(b, "model_file.save", t, root);

    t = Clock::now();
    s.rebuildFlops = rebuildFlops(comp.records);
    serve::SessionOptions so;
    so.denseState =
        std::make_shared<const std::vector<core::DenseTensor>>(comp.dense);
    serve::InferenceSession ref(
        factoryFor(kModel)(),
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(comp.records)),
        se_opts, core::ApplyOptions{}, so);
    for (const Tensor &x : b.inputs)
        s.refs.push_back(
            ref.forward(x.reshaped({1, x.dim(0), x.dim(1), x.dim(2)})));
    span(b, "references", t, root);

    t = Clock::now();
    serve::ModelRegistry reg;
    reg.add(kModel.id, b.openEntry());
    span(b, "stream.open", t, root);

    t = Clock::now();
    serve::ServeOptions opts;
    opts.threads = 3;
    opts.maxBatch = 16;
    opts.flush = serve::FlushPolicy::Greedy;
    opts.session.rebuildPerCall = b.args.wl->rebuildPerCall;
    opts.session.cacheRebuiltWeights = !b.args.wl->rebuildPerCall;
    b.front = std::make_unique<serve::ServeFront>(reg, opts);
    // A streamed model's engine is otherwise built by its first
    // submit, on the load thread's CPU, and its threads would inherit
    // that CPU. Stand the engine up here, on the server CPUs.
    b.front->engine(kModel.id);
    span(b, "front.construct", t, root);

    t = Clock::now();
    const uint32_t warm = b.tr ? b.tr->reserve() : 0;
    b.loop(Clock::time_point::max(), kWarmup, warm);
    const auto t1 = Clock::now();
    st.warmupS = msBetween(t, t1) / 1000.0;
    st.totalS = msBetween(t0, t1) / 1000.0;
    if (b.tr) {
        b.tr->record("warmup", t, t1, root, -1, warm);
        b.tr->record("setup", t0, t1, 0, -1, root);
    }
    return st;
}

// ------------------------------------------------------------ reloads

struct ReloadResult
{
    uint64_t attempted = 0, succeeded = 0, failed = 0;
    std::vector<double> ms;     ///< reloadModel wall time
    std::vector<double> lagMs;  ///< start past its scheduled time
};

/** Reload the model at start + k * period, `count` times, re-opening
 *  its bundle file each time. */
ReloadResult
runReloads(Bench &b, double periodMs, size_t count)
{
    ReloadResult r;
    const auto start = Clock::now();
    for (size_t k = 0; k < count; ++k) {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            periodMs * (double)k));
        std::this_thread::sleep_until(due);
        const auto t0 = Clock::now();
        r.lagMs.push_back(msBetween(due, t0));
        ++r.attempted;
        try {
            auto entry = b.openEntry();
            const auto t1 = Clock::now();
            b.front->reloadModel(kModel.id, std::move(entry));
            const auto t2 = Clock::now();
            r.ms.push_back(msBetween(t1, t2));
            ++r.succeeded;
            if (b.tr) {
                const uint32_t id = b.tr->reserve();
                b.tr->record("stream.open", t0, t1, id);
                b.tr->record("front.reload", t0, t2, 0, -1, id);
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "reload of %s failed: %s\n",
                         kModel.id, e.what());
            ++r.failed;
        }
    }
    return r;
}

// ---------------------------------------------------- the timed phase

struct EngineDelta
{
    uint64_t requests = 0, batches = 0;
    double formMs = 0, execMs = 0, completeMs = 0, stallMs = 0;
};

EngineDelta
engineTotals(Bench &b)
{
    // ServeFront::stats() drops the stage counters, so read them off
    // the engine itself.
    const serve::ServeStats st = b.front->engine(kModel.id).stats();
    return {st.requests, st.batches, st.formMs, st.execMs, st.completeMs,
            st.decodeStallMs};
}

struct Phase
{
    perfbench::LoopResult loop;
    ReloadResult reloads;
    EngineDelta engine;
    double rps = 0.0;
};

/** The timed closed loop, then the idle reloads behind reload_ms. */
Phase
runPhase(Bench &b, double seconds)
{
    Phase p;
    const uint32_t root = b.tr ? b.tr->reserve() : 0;
    const auto t0 = Clock::now();
    const EngineDelta before = engineTotals(b);
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    p.loop = b.loop(deadline, UINT64_MAX, root);
    const EngineDelta after = engineTotals(b);
    p.engine = {after.requests - before.requests,
                after.batches - before.batches,
                after.formMs - before.formMs,
                after.execMs - before.execMs,
                after.completeMs - before.completeMs,
                after.stallMs - before.stallMs};
    p.rps = p.loop.elapsedS > 0
                ? (double)p.loop.succeeded / p.loop.elapsedS
                : 0.0;
    if (b.tr)
        b.tr->record("phase", t0, Clock::now(), 0, -1, root);
    p.reloads = runReloads(b, kIdleReloadPeriodMs, kIdleReloads);
    return p;
}

// ------------------------------------------------------------ replay

struct Replay
{
    size_t batch = 1;
    size_t iterations = 0;
    double forwardMs = 0, rebuildMs = 0, coldFrac = 0, packMs = 0;
    std::map<std::string, double> childMs;  ///< median per name
    double coverage = 0;
    double convFlops = 0, convBytes = 0;  ///< per request, computed
    double coldRebuildMs = 0;
    uint64_t mismatched = 0;
};

/**
 * Traced replay on a standalone InferenceSession of the served
 * bundle with the workload's session options and batch size, under
 * the same SerialScope the engine's replicas run in. Each iteration
 * times forward() (reading the rebuild counters around it), then
 * walks the net's top-level children by hand on the same input so
 * each child's time is visible.
 */
Replay
replay(Bench &b, size_t batch, double budgetMs)
{
    Replay rp;
    rp.batch = batch;
    const Served &s = b.served;
    kernels::SerialScope serial;
    core::StreamedModel sm(s.path);
    serve::SessionOptions so;
    so.rebuildPerCall = b.args.wl->rebuildPerCall;
    so.cacheRebuiltWeights = !b.args.wl->rebuildPerCall;
    so.weightSource = serve::WeightSource::CeDirect;
    so.denseState =
        std::make_shared<const std::vector<core::DenseTensor>>(
            sm.dense());
    serve::InferenceSession session(factoryFor(kModel)(), sm.records(),
                                    seOptions(), core::ApplyOptions{},
                                    so);
    rp.packMs = session.stats().packMs;

    const Shape &xs = b.inputs[0].shape();
    const int64_t per = b.inputs[0].size();
    Tensor x({(int64_t)batch, xs[0], xs[1], xs[2]});
    for (size_t i = 0; i < batch; ++i)
        std::memcpy(x.data() + i * per,
                    b.inputs[i % b.inputs.size()].data(),
                    sizeof(float) * (size_t)per);
    session.forward(x);  // warm: caches fill where the policy has one

    const uint32_t root = b.tr ? b.tr->reserve() : 0;
    const auto start = Clock::now();
    std::vector<double> fwd, reb;
    std::map<std::string, std::vector<double>> child;
    double sumCovered = 0, sumForward = 0;
    uint64_t cold = 0;
    nn::Sequential &net = session.net();
    while (rp.iterations < 20 ||
           (msBetween(start, Clock::now()) < budgetMs &&
            rp.iterations < 2000)) {
        const serve::SessionStats s0 = session.stats();
        const auto t0 = Clock::now();
        const Tensor y = session.forward(x);
        const auto t1 = Clock::now();
        const serve::SessionStats s1 = session.stats();
        const uint32_t fid =
            b.tr ? b.tr->record("session.forward", t0, t1, root) : 0;
        fwd.push_back(msBetween(t0, t1));
        reb.push_back(s1.rebuildMs - s0.rebuildMs);
        cold += s1.coldRebuilds - s0.coldRebuilds;
        double covered = reb.back();
        std::map<std::string, double> iter;
        Tensor h = x;
        for (size_t c = 0; c < net.size(); ++c) {
            nn::Layer *layer = net.layer(c);
            const Shape in = h.shape();
            const auto c0 = Clock::now();
            h = layer->forward(h, /*train=*/false);
            const auto c1 = Clock::now();
            iter[layer->name()] += msBetween(c0, c1);
            covered += msBetween(c0, c1);
            if (b.tr)
                b.tr->record("nn.child", c0, c1, fid);
            auto *conv = dynamic_cast<nn::Conv2d *>(layer);
            if (conv && rp.iterations == 0) {
                const Tensor &w = conv->weightTensor();
                const double outPer = (double)(h.size() / h.dim(0));
                rp.convFlops += 2.0 * outPer *
                                (double)(w.size() / w.dim(0));
                rp.convBytes +=
                    4.0 * ((double)(numel(in) / in[0]) + outPer +
                           (double)w.size() / (double)batch);
            }
        }
        for (auto &kv : iter)
            child[kv.first].push_back(kv.second);
        if (h.size() != y.size() ||
            std::memcmp(h.data(), y.data(),
                        sizeof(float) * (size_t)y.size()) != 0)
            ++rp.mismatched;
        const int64_t outPer = y.size() / (int64_t)batch;
        for (size_t i = 0; i < batch; ++i) {
            const Tensor &ref = s.refs[i % s.refs.size()];
            if (ref.size() != outPer ||
                std::memcmp(y.data() + i * outPer, ref.data(),
                            sizeof(float) * (size_t)outPer) != 0)
                ++rp.mismatched;
        }
        sumCovered += covered;
        sumForward += fwd.back();
        ++rp.iterations;
    }
    if (b.tr)
        b.tr->record("replay", start, Clock::now(), 0, -1, root);
    rp.forwardMs = perfbench::median(fwd);
    rp.rebuildMs = perfbench::median(reb);
    rp.coldFrac = (double)cold / ((double)rp.iterations *
                                  (double)session.rebuildableLayers());
    for (auto &kv : child)
        rp.childMs[kv.first] = perfbench::median(kv.second);
    rp.coverage = sumForward > 0 ? sumCovered / sumForward : 0.0;

    // Cold rebuilds at batch 1, for the rebuild rate: the cached
    // workloads never rebuild in steady state.
    std::vector<double> coldMs;
    const Tensor x1 = b.inputs[0].reshaped({1, xs[0], xs[1], xs[2]});
    for (int i = 0; i < 5; ++i) {
        session.invalidateWeights();
        session.clearRebuildCache();
        const double r0 = session.stats().rebuildMs;
        session.forward(x1);
        coldMs.push_back(session.stats().rebuildMs - r0);
    }
    rp.coldRebuildMs = perfbench::median(coldMs);
    b.mismatched += rp.mismatched;
    return rp;
}

// ------------------------------------------------------------ output

void
refuseKnobs()
{
    // SE_* knobs (SE_PIPELINE, SE_KERNEL_ISA, SE_THREADS, ...) would
    // silently change what is measured; a baseline taken under one
    // would not compare with a run without it.
    std::string set;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "SE_", 3) == 0)
            set += std::string(" ") +
                   std::string(*e, std::strcspn(*e, "="));
    if (!set.empty()) {
        std::fprintf(stderr,
                     "perfbench: refusing to run with SE_* set:%s\n",
                     set.c_str());
        std::exit(2);
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

/** Builds the final {"name": {"value": v, "unit": u}, ...} object. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
        std::printf("  %-28s %16.6g %s\n", name.c_str(), value, unit);
    }
    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonList(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.4f", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<batch-percall|batch-cached> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>]\n",
                 msg);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    refuseKnobs();
    Bench b;
    Args &a = b.args;
    bool haveSeed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload") {
            for (const auto &w : kWorkloads)
                if (v == w.name)
                    a.wl = &w;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
            haveSeed = true;
        } else if (k == "--seconds") {
            a.seconds = std::atof(v.c_str());
        } else if (k == "--trace") {
            a.trace = v == "1";
        } else if (k == "--workdir") {
            a.workdir = v;
        } else if (k == "--trace-out") {
            a.traceOut = v;
        } else {
            return usage(("unknown argument " + k).c_str());
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in --name value pairs");
    if (!a.wl)
        return usage("unknown or missing --workload");
    if (!haveSeed || a.seconds <= 0.0 || a.workdir.empty())
        return usage("--seed, --seconds and --workdir are required");

    const WorkloadSpec &wl = *a.wl;
    b.cpus = splitCpus();
    const PinScope serverSide(b.cpus, /*load=*/false);
    b.inputs =
        perfbench::makeInputs(a.seed, kPoolInputs, {3, kSide, kSide});
    std::unique_ptr<Tracer> tracer;
    if (a.trace)
        tracer = std::make_unique<Tracer>(kProcessStart);

    // Set up kSetups times and keep the last front; the untraced
    // half of a traced run measures tracing's overhead.
    std::vector<double> setupS, warmupS, compressMs, saveMs;
    b.tr = tracer.get();
    for (int i = 0; i < kSetups; ++i) {
        const SetupTimes st = setUp(b);
        setupS.push_back(st.totalS);
        warmupS.push_back(st.warmupS);
        compressMs.push_back(st.compressMs);
        saveMs.push_back(st.saveMs);
    }

    const double phaseS = a.trace ? a.seconds / 2 : a.seconds;
    b.tr = nullptr;
    Phase plain = runPhase(b, phaseS);
    Phase traced;
    Replay rp;
    std::vector<double> openMs, decodeMs;
    size_t pieces = 0;
    if (a.trace) {
        b.tr = tracer.get();
        traced = runPhase(b, phaseS);
        const double batchMean =
            traced.engine.batches
                ? (double)traced.engine.requests /
                      (double)traced.engine.batches
                : 1.0;
        rp = replay(b, (size_t)std::max(1.0, std::round(batchMean)),
                    1000.0);
        for (int i = 0; i < 5; ++i) {
            const auto t0 = Clock::now();
            core::StreamedModel sm(b.served.path);
            const auto t1 = Clock::now();
            sm.records();
            const auto t2 = Clock::now();
            openMs.push_back(msBetween(t0, t1));
            decodeMs.push_back(msBetween(t1, t2));
            pieces = sm.pieceCount();
            const uint32_t id = b.tr->record("stream.open", t0, t1);
            b.tr->record("stream.decode", t1, t2, id);
        }
    }
    b.front->stop();
    const Phase &ph = a.trace ? traced : plain;

    const perfbench::Summary lat = perfbench::summarize(ph.loop.latencyMs);
    const perfbench::Windowed win =
        perfbench::windowed(ph.loop.latencyMs, ph.loop.doneS,
                            ph.loop.elapsedS, kMaxWindows, kMinWindowS);
    const perfbench::Summary rel = perfbench::summarize(ph.reloads.ms);
    const perfbench::Summary sub = perfbench::summarize(ph.loop.submitUs);
    const uint64_t attempted = ph.loop.attempted + ph.reloads.attempted;
    const uint64_t failed = ph.loop.failed + ph.reloads.failed;
    const bool correct = b.mismatched == 0;

    // Environment stamp and counts, one JSON line ahead of the result.
    std::printf(
        "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"trace\": %d, \"isa\": \"%s\", \"nproc\": %ld, "
        "\"compiler\": \"%s\", \"build\": \"%s\", \"flags\": \"%s\", "
        "\"replicas\": %d, \"load_cpu\": %d, "
        "\"requests\": {\"attempted\": %llu, \"succeeded\": %llu, "
        "\"failed\": %llu, \"mismatched\": %llu}, "
        "\"reloads\": {\"attempted\": %llu, \"succeeded\": %llu, "
        "\"failed\": %llu}, "
        "\"latency_ms\": {\"count\": %zu, \"p50\": %.4f, "
        "\"tail_pct\": %.1f, \"tail\": %.4f, \"beyond\": %zu}, "
        "\"windows\": %zu, \"window_rps\": %s, \"window_p99\": %s, "
        "\"whole_run_rps\": %.2f, "
        "\"reload_ms\": {\"count\": %zu, \"p50\": %.4f, "
        "\"tail_pct\": %.1f, \"tail\": %.4f}, "
        "\"setup_s\": %s, \"warmup_s\": %s}}\n",
        wl.name, (unsigned long long)a.seed, (int)a.trace,
        kernels::isaName(kernels::activeIsa()),
        sysconf(_SC_NPROCESSORS_ONLN), __VERSION__, PERFBENCH_BUILD_TYPE,
        PERFBENCH_CXX_FLAGS, b.front->replicaCount(), b.cpus.loadCpu,
        (unsigned long long)ph.loop.attempted,
        (unsigned long long)ph.loop.succeeded,
        (unsigned long long)ph.loop.failed,
        (unsigned long long)ph.loop.mismatched,
        (unsigned long long)ph.reloads.attempted,
        (unsigned long long)ph.reloads.succeeded,
        (unsigned long long)ph.reloads.failed, lat.count, lat.p50,
        lat.tailPct, lat.tail, lat.beyond, win.windows,
        jsonList(win.windowRps).c_str(), jsonList(win.windowP99).c_str(),
        ph.rps,
        rel.count, rel.p50,
        rel.tailPct, rel.tail, jsonList(setupS).c_str(),
        jsonList(warmupS).c_str());

    if (a.trace ? !sub.hasP99 : win.windows == 0) {
        std::fprintf(stderr,
                     "perfbench: %zu requests cannot support a p99; "
                     "raise --seconds\n",
                     lat.count);
        return 3;
    }
    Metrics m;
    if (!a.trace) {
        std::printf("end-to-end (%s, seed %llu):\n", wl.name,
                    (unsigned long long)a.seed);
        m.add("throughput_rps", win.rps, "1/s");
        m.add("p50_ms", lat.p50, "ms");
        m.add("p99_ms", win.p99, "ms");
        m.add("reload_ms", rel.p50, "ms");
        m.add("setup_s", perfbench::median(setupS), "s");
        m.add("bundle_bytes", (double)b.served.bytes, "B");
        m.add("peak_rss_mb", peakRssMb(), "MB");
    } else {
        const EngineDelta &e = ph.engine;
        const double nb = e.batches ? (double)e.batches : 1.0;
        auto child = [&](std::initializer_list<const char *> names) {
            double ms = 0.0;
            for (const char *n : names) {
                auto it = rp.childMs.find(n);
                if (it != rp.childMs.end())
                    ms += it->second;
            }
            return ms;
        };
        const double convMs = child({"conv"});
        std::printf("per-layer (%s, seed %llu, replay batch %zu, "
                    "%zu iterations, %zu spans):\n",
                    wl.name, (unsigned long long)a.seed, rp.batch,
                    rp.iterations, tracer->size());
        m.add("front.submit_us", sub.p50, "us");
        m.add("front.submit_p99_us", sub.p99, "us");
        m.add("front.reload_ok_frac",
              ph.reloads.attempted ? (double)ph.reloads.succeeded /
                                         (double)ph.reloads.attempted
                                   : 0.0,
              "ratio");
        m.add("engine.batch_mean", (double)e.requests / nb, "count");
        m.add("engine.exec_ms", e.execMs / nb, "ms");
        m.add("engine.rebuild_stall_ms", e.stallMs / nb, "ms");
        m.add("engine.form_ms", e.formMs / nb, "ms");
        m.add("engine.complete_ms", e.completeMs / nb, "ms");
        m.add("engine.wait_ms",
              lat.mean - (e.execMs + e.formMs + e.completeMs) / nb,
              "ms");
        m.add("session.forward_ms", rp.forwardMs, "ms");
        m.add("session.rebuild_ms", rp.rebuildMs, "ms");
        m.add("session.cold_rebuild_frac", rp.coldFrac, "ratio");
        m.add("session.pack_ms", rp.packMs, "ms");
        m.add("nn.conv_ms", convMs, "ms");
        m.add("nn.bn_ms", child({"bn"}), "ms");
        m.add("nn.relu_ms", child({"relu"}), "ms");
        m.add("nn.pool_ms", child({"maxpool", "gap"}), "ms");
        m.add("nn.linear_ms", child({"linear"}), "ms");
        m.add("kernels.conv_flops", rp.convFlops, "flop");
        m.add("kernels.conv_bytes", rp.convBytes, "B");
        m.add("kernels.conv_gflops",
              convMs > 0 ? rp.convFlops * (double)rp.batch /
                               (convMs * 1e6)
                         : 0.0,
              "GFLOP/s");
        m.add("kernels.rebuild_gflops",
              rp.coldRebuildMs > 0
                  ? b.served.rebuildFlops / (rp.coldRebuildMs * 1e6)
                  : 0.0,
              "GFLOP/s");
        m.add("stream.open_ms", perfbench::median(openMs), "ms");
        m.add("stream.decode_ms", perfbench::median(decodeMs), "ms");
        m.add("stream.pieces", (double)pieces, "count");
        m.add("model_file.save_ms", perfbench::median(saveMs), "ms");
        m.add("runtime.compress_ms", perfbench::median(compressMs),
              "ms");
        m.add("loadgen.reload_lag_ms",
              perfbench::median(ph.reloads.lagMs), "ms");
        m.add("trace.coverage", rp.coverage, "ratio");
        m.add("trace.overhead_frac",
              plain.rps > 0 ? 1.0 - traced.rps / plain.rps : 0.0,
              "ratio");
        if (!a.traceOut.empty() && !tracer->writeChromeJson(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
    }
    std::remove(b.served.path.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)attempted,
                (unsigned long long)failed, m.json().c_str());
    if (!correct)
        std::fprintf(stderr, "perfbench: %llu responses differed from "
                             "their reference\n",
                     (unsigned long long)b.mismatched);
    return correct ? 0 : 1;
}
