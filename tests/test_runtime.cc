/**
 * @file
 * Tests of the se::runtime layer: thread pool, content hashing, the
 * decomposition cache, the parallel compression pipeline (bit-identical
 * to the serial path), and the batched simulation driver.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "accel/annotate.hh"
#include "accel/baselines.hh"
#include "accel/smartexchange_accel.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "base/thread_pool.hh"
#include "runtime/options.hh"
#include "runtime/pipeline.hh"
#include "runtime/sim_driver.hh"

namespace se {
namespace {

// -------------------------------------------- RuntimeOptions::fromEnv

/** RAII env var that restores the previous value on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name))
            prev_ = prev;
        had_ = std::getenv(name) != nullptr;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (had_)
            ::setenv(name_.c_str(), prev_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_, prev_;
    bool had_ = false;
};

TEST(RuntimeOptions, FromEnvParsesValidKnobs)
{
    ScopedEnv t("SE_THREADS", "3");
    ScopedEnv q("SE_SERVE_QUEUE_CAP", "128");
    ScopedEnv d("SE_SERVE_DEADLINE_MS", "2.5");
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.threads, 3);
    EXPECT_EQ(kernels::threadsFromEnv(), 3);
    EXPECT_EQ(ro.serveQueueCap, 128u);
    EXPECT_DOUBLE_EQ(ro.serveDeadlineMs, 2.5);
}

TEST(RuntimeOptions, FromEnvRejectsMalformedValues)
{
    // Regression: these used to be atoi/atof'd — SE_THREADS=four
    // silently selected the legacy serial path (0) instead of
    // failing. Every SE_* knob now rejects unrecognized values.
    const std::vector<std::pair<const char *, const char *>> bad{
        {"SE_THREADS", "four"},
        {"SE_THREADS", "4x"},
        {"SE_THREADS", ""},
        {"SE_THREADS", "4294967296"},  // would wrap to 0 (serial)
        {"SE_SERVE_QUEUE_CAP", "many"},
        {"SE_SERVE_QUEUE_CAP", "-1"},
        {"SE_SERVE_DEADLINE_MS", "fast"},
        {"SE_SERVE_DEADLINE_MS", "1.5ms"},
        {"SE_SERVE_DEADLINE_MS", "nan"},
        {"SE_KERNEL_ISA", "avx512"},
        {"SE_KERNEL_ISA", "fast"},
        {"SE_KERNEL_ISA", "AVX2"},  // case-sensitive like the others
        {"SE_KERNEL_ISA", "sse2"},  // not a tier: scalar or avx2
    };
    for (const auto &[name, value] : bad) {
        ScopedEnv e(name, value);
        EXPECT_THROW(runtime::RuntimeOptions::fromEnv(),
                     std::invalid_argument)
            << name << "=" << value;
        // The kernel pool sizes itself through the same strict parser,
        // so a process that never calls fromEnv cannot fall back to a
        // one-worker pool on a typo either.
        if (!std::strcmp(name, "SE_THREADS"))
            EXPECT_THROW(kernels::threadsFromEnv(), std::invalid_argument)
                << name << "=" << value;
    }
}

TEST(RuntimeOptions, FromEnvKernelIsaForcedSelection)
{
    // SE_KERNEL_ISA=scalar is valid on every build; applyKernelConfig
    // must install it process-wide, and the default (unset) env must
    // leave the field empty so apply keeps the startup selection.
    const kernels::KernelIsa before = kernels::activeIsa();
    {
        ScopedEnv isa("SE_KERNEL_ISA", "scalar");
        const auto ro = runtime::RuntimeOptions::fromEnv();
        ASSERT_TRUE(ro.kernelIsa.has_value());
        EXPECT_EQ(*ro.kernelIsa, kernels::KernelIsa::Scalar);
        ro.applyKernelConfig();
        EXPECT_EQ(kernels::activeIsa(), kernels::KernelIsa::Scalar);
    }
    kernels::setActiveIsa(before);
    {
        ScopedEnv isa("SE_KERNEL_ISA", "auto");
        const auto ro = runtime::RuntimeOptions::fromEnv();
        ASSERT_TRUE(ro.kernelIsa.has_value());
        EXPECT_EQ(*ro.kernelIsa, kernels::detectBestIsa());
    }
    {
        ScopedEnv isa("SE_KERNEL_ISA", "unset-sentinel");
        ::unsetenv("SE_KERNEL_ISA");
        const auto ro = runtime::RuntimeOptions::fromEnv();
        EXPECT_FALSE(ro.kernelIsa.has_value());
        ro.applyKernelConfig();  // no-op on the ISA
        EXPECT_EQ(kernels::activeIsa(), before);
    }
}

TEST(RuntimeOptions, FromEnvDefaultsWithoutKnobs)
{
    // Shield against SE_* leaking in from the harness environment.
    std::vector<std::unique_ptr<ScopedEnv>> clear;
    for (const char *name :
         {"SE_SERVE_QUEUE_CAP", "SE_SERVE_DEADLINE_MS"}) {
        clear.push_back(std::make_unique<ScopedEnv>(name, "0"));
        ::unsetenv(name);  // ScopedEnv restores any prior value
    }
    const auto ro = runtime::RuntimeOptions::fromEnv();
    EXPECT_EQ(ro.serveQueueCap, 0u);
    EXPECT_DOUBLE_EQ(ro.serveDeadlineMs, 0.0);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPool, SubmitReturnsResults)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.threadCount(), 3);
    auto f = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const int64_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](int64_t i) { hits[(size_t)i]++; });
    for (int64_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[(size_t)i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(8,
                                  [](int64_t i) {
                                      if (i == 5)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
}

TEST(ThreadPool, SingleWorkerRunsInline)
{
    ThreadPool pool(1);
    int64_t sum = 0;  // no atomics needed: inline execution
    pool.parallelFor(100, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum, 4950);
}

// ------------------------------------------------------------------ Hash

TEST(Hash, TensorHashIsContentAndShapeSensitive)
{
    Rng rng(11);
    Tensor a = randn({6, 4}, rng, 0.0f, 1.0f);
    Tensor b = a;
    EXPECT_EQ(hashTensor(a), hashTensor(b));

    b[0] += 1.0f;
    EXPECT_NE(hashTensor(a), hashTensor(b));

    // Same bytes, different shape.
    Tensor c = a.reshaped({4, 6});
    EXPECT_NE(hashTensor(a), hashTensor(c));
}

TEST(Hash, DecompKeySeesOptionChanges)
{
    Rng rng(12);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    core::SeOptions a, b;
    b.vectorThreshold = a.vectorThreshold * 2.0;
    EXPECT_NE(runtime::decompKey(w, a), runtime::decompKey(w, b));
    EXPECT_EQ(runtime::decompKey(w, a), runtime::decompKey(w, a));
}

// ----------------------------------------------------------- DecompCache

TEST(DecompCache, HitMissCountersAndIdenticalResults)
{
    Rng rng(13);
    Tensor w = randn({16, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;

    runtime::DecompCache cache(8);
    auto first = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.size(), 1u);

    auto second = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    // The cached copy is bit-identical to the computed one.
    ASSERT_EQ(first.ce.size(), second.ce.size());
    EXPECT_EQ(std::memcmp(first.ce.data(), second.ce.data(),
                          (size_t)first.ce.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(first.basis.data(), second.basis.data(),
                          (size_t)first.basis.size() * sizeof(float)),
              0);
    EXPECT_EQ(first.reconRelError, second.reconRelError);
}

TEST(DecompCache, EvictsLeastRecentlyUsed)
{
    Rng rng(14);
    core::SeOptions opts;
    runtime::DecompCache cache(2);

    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w2 = randn({8, 4}, rng, 0.0f, 0.1f);

    cache.getOrCompute(w0, opts);  // {w0}
    cache.getOrCompute(w1, opts);  // {w1, w0}
    cache.getOrCompute(w0, opts);  // hit -> {w0, w1}
    EXPECT_EQ(cache.hits(), 1u);
    cache.getOrCompute(w2, opts);  // evicts w1 -> {w2, w0}
    EXPECT_EQ(cache.size(), 2u);

    cache.getOrCompute(w0, opts);  // still cached
    EXPECT_EQ(cache.hits(), 2u);
    cache.getOrCompute(w1, opts);  // was evicted: a miss
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(DecompCache, ZeroCapacityDisables)
{
    Rng rng(15);
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    runtime::DecompCache cache(0);
    cache.getOrCompute(w, core::SeOptions{});
    cache.getOrCompute(w, core::SeOptions{});
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
}

// ------------------------------------------- persistent DecompCache

namespace fs = std::filesystem;

/** Fresh spill directory, removed again on scope exit. */
struct SpillDir
{
    explicit SpillDir(const std::string &name)
        : path((fs::temp_directory_path() / name).string())
    {
        fs::remove_all(path);
    }
    ~SpillDir() { fs::remove_all(path); }
    std::string path;
};

TEST(PersistentDecompCache, SurvivesARestart)
{
    SpillDir dir("se_runtime_spill_restart");
    Rng rng(16);
    Tensor w = randn({16, 4}, rng, 0.0f, 0.1f);
    core::SeOptions opts;
    opts.vectorThreshold = 0.01;

    core::SeMatrix first;
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        first = cache.getOrCompute(w, opts);
        EXPECT_EQ(cache.spills(), 1u);
        EXPECT_EQ(cache.spillFailures(), 0u);
    }
    // "Restart": a fresh instance (empty memory tier) finds the
    // entry on disk, bit-identical to the computed one.
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_EQ(cache.recoverScan(), 1u);
    const auto second = cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.diskHits(), 1u);
    EXPECT_EQ(cache.misses(), 0u);
    ASSERT_EQ(first.ce.size(), second.ce.size());
    EXPECT_EQ(std::memcmp(first.ce.data(), second.ce.data(),
                          (size_t)first.ce.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(first.basis.data(), second.basis.data(),
                          (size_t)first.basis.size() * sizeof(float)),
              0);
    // The disk hit was promoted: the next lookup is a memory hit.
    cache.getOrCompute(w, opts);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PersistentDecompCache, MemoryEvictionKeepsTheDiskCopy)
{
    SpillDir dir("se_runtime_spill_evict");
    Rng rng(17);
    core::SeOptions opts;
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{1, dir.path});
    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    cache.getOrCompute(w0, opts);
    cache.getOrCompute(w1, opts);  // evicts w0 from memory
    EXPECT_EQ(cache.size(), 1u);
    cache.getOrCompute(w0, opts);  // …but the spill tier still has it
    EXPECT_EQ(cache.diskHits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PersistentDecompCache, CorruptAndTruncatedEntriesAreDropped)
{
    SpillDir dir("se_runtime_spill_corrupt");
    Rng rng(18);
    core::SeOptions opts;
    Tensor w0 = randn({8, 4}, rng, 0.0f, 0.1f);
    Tensor w1 = randn({8, 4}, rng, 0.0f, 0.1f);
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        cache.getOrCompute(w0, opts);
        cache.getOrCompute(w1, opts);
    }
    // Flip one payload byte in the first entry, truncate the second.
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(dir.path))
        files.push_back(e.path().string());
    ASSERT_EQ(files.size(), 2u);
    {
        std::fstream f(files[0],
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(30);
        char b = 0;
        f.seekg(30);
        f.get(b);
        b = (char)(b ^ 0x10);
        f.seekp(30);
        f.put(b);
    }
    fs::resize_file(files[1], 10);

    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    // The recovery scan at construction already swept both.
    EXPECT_EQ(cache.corruptDropped(), 2u);
    EXPECT_EQ(cache.recoverScan(), 0u);
    for (const auto &e : fs::directory_iterator(dir.path))
        FAIL() << "stale file survived recovery: " << e.path();
    // Both lookups are ordinary misses that recompute and re-spill.
    core::SeMatrix out;
    EXPECT_FALSE(cache.lookup(runtime::decompKey(w0, opts), out));
    cache.getOrCompute(w0, opts);
    EXPECT_EQ(cache.spills(), 1u);
}

TEST(PersistentDecompCache, ForeignAndMisnamedFilesAreHandled)
{
    SpillDir dir("se_runtime_spill_foreign");
    Rng rng(19);
    core::SeOptions opts;
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    {
        runtime::DecompCache cache(
            runtime::DecompCacheOptions{8, dir.path});
        cache.getOrCompute(w, opts);
    }
    // A foreign file is left alone; a valid entry renamed under the
    // wrong key must NOT be served (key binding) and is dropped.
    std::string entry;
    for (const auto &e : fs::directory_iterator(dir.path))
        entry = e.path().string();
    {
        std::ofstream f((fs::path(dir.path) / "notes.txt").string());
        f << "not a cache entry";
    }
    const std::string renamed =
        (fs::path(dir.path) / "0123456789abcdef.sedc").string();
    fs::copy_file(entry, renamed);

    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_EQ(cache.recoverScan(), 1u);  // the real entry survives
    EXPECT_FALSE(fs::exists(renamed));
    EXPECT_TRUE(
        fs::exists((fs::path(dir.path) / "notes.txt").string()));
    core::SeMatrix out;
    EXPECT_TRUE(cache.lookup(runtime::decompKey(w, opts), out));
    EXPECT_EQ(cache.diskHits(), 1u);
}

TEST(PersistentDecompCache, ClearKeepsSpillPurgeWipesIt)
{
    SpillDir dir("se_runtime_spill_purge");
    Rng rng(20);
    core::SeOptions opts;
    Tensor w = randn({8, 4}, rng, 0.0f, 0.1f);
    runtime::DecompCache cache(
        runtime::DecompCacheOptions{8, dir.path});
    EXPECT_TRUE(cache.persistent());
    cache.getOrCompute(w, opts);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.recoverScan(), 1u);  // disk tier survived clear()
    cache.purgeSpill();
    EXPECT_EQ(cache.recoverScan(), 0u);
}

// --------------------------------------------------- CompressionPipeline

/** A small CNN exercising all three reshape rules + BN pruning. */
std::unique_ptr<nn::Sequential>
makeCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(3, 16, 3, 1, 1, 1, rng, false);
    auto *bn = net->add<nn::BatchNorm2d>(16);
    net->add<nn::Conv2d>(16, 24, 1, 1, 0, 1, rng, false);  // 1x1 rule
    net->add<nn::Conv2d>(24, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::Linear>(32, 10, rng, false);              // FC rule
    // Make one BN gamma small enough to trip channel pruning.
    bn->gammaTensor()[3] = 1e-4f;
    return net;
}

/** Bit-exact weight comparison between two networks. */
void
expectIdenticalWeights(nn::Sequential &a, nn::Sequential &b)
{
    std::vector<const Tensor *> wa, wb;
    a.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            wa.push_back(&c->weightTensor());
        else if (auto *f = dynamic_cast<nn::Linear *>(&l))
            wa.push_back(&f->weightTensor());
    });
    b.visit([&](nn::Layer &l) {
        if (auto *c = dynamic_cast<nn::Conv2d *>(&l))
            wb.push_back(&c->weightTensor());
        else if (auto *f = dynamic_cast<nn::Linear *>(&l))
            wb.push_back(&f->weightTensor());
    });
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i) {
        ASSERT_EQ(wa[i]->size(), wb[i]->size());
        EXPECT_EQ(std::memcmp(wa[i]->data(), wb[i]->data(),
                              (size_t)wa[i]->size() * sizeof(float)),
                  0)
            << "weight tensor " << i << " differs";
    }
}

void
expectIdenticalReports(const core::CompressionReport &a,
                       const core::CompressionReport &b)
{
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (size_t i = 0; i < a.layers.size(); ++i) {
        const auto &x = a.layers[i], &y = b.layers[i];
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.weightCount, y.weightCount);
        EXPECT_EQ(x.originalBits, y.originalBits);
        EXPECT_EQ(x.ceBits, y.ceBits);
        EXPECT_EQ(x.basisBits, y.basisBits);
        EXPECT_EQ(x.vectorSparsity, y.vectorSparsity);
        EXPECT_EQ(x.elementSparsity, y.elementSparsity);
        EXPECT_EQ(x.channelSparsity, y.channelSparsity);
        EXPECT_EQ(x.reconRelError, y.reconRelError);
        EXPECT_EQ(x.decomposed, y.decomposed);
        EXPECT_EQ(x.pieces, y.pieces);
    }
}

TEST(CompressionPipeline, ParallelMatchesSerialBitForBit)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 0.01;
    apply_opts.maxSliceRows = 24;  // exercise slicing too

    auto serial_net = makeCnn(77);
    auto report_serial =
        core::applySmartExchange(*serial_net, se_opts, apply_opts);

    runtime::RuntimeOptions ro;
    ro.threads = 4;
    runtime::CompressionPipeline pipe(ro);
    auto parallel_net = makeCnn(77);
    auto report_parallel =
        pipe.run(*parallel_net, se_opts, apply_opts);

    EXPECT_EQ(pipe.stats().threadsUsed, 4);
    EXPECT_GT(pipe.stats().units, 0u);
    expectIdenticalWeights(*serial_net, *parallel_net);
    expectIdenticalReports(report_serial, report_parallel);
}

TEST(CompressionPipeline, ZeroThreadsIsTheLegacySerialPath)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;

    auto serial_net = makeCnn(78);
    auto report_serial = core::applySmartExchange(
        *serial_net, se_opts, core::ApplyOptions{});

    runtime::CompressionPipeline pipe;  // threads = 0
    auto fallback_net = makeCnn(78);
    auto report_fallback =
        pipe.run(*fallback_net, se_opts, core::ApplyOptions{});

    expectIdenticalWeights(*serial_net, *fallback_net);
    expectIdenticalReports(report_serial, report_fallback);
}

TEST(CompressionPipeline, CacheAnswersRepeatedSweeps)
{
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;

    runtime::RuntimeOptions ro;
    ro.threads = 2;
    ro.cacheCapacity = 4096;
    runtime::CompressionPipeline pipe(ro);

    auto net1 = makeCnn(79);
    auto report1 = pipe.run(*net1, se_opts, core::ApplyOptions{});
    EXPECT_EQ(pipe.stats().cacheHits, 0u);
    const size_t units = pipe.stats().units;

    // A fresh, identical network: every unit should hit the cache.
    auto net2 = makeCnn(79);
    auto report2 = pipe.run(*net2, se_opts, core::ApplyOptions{});
    EXPECT_EQ(pipe.stats().units, units);
    EXPECT_EQ(pipe.stats().cacheHits, units);

    expectIdenticalWeights(*net1, *net2);
    expectIdenticalReports(report1, report2);
}

// -------------------------------------------------------------- SimDriver

TEST(SimDriver, LayerBatchEqualsSerialAccumulation)
{
    accel::SmartExchangeAccel acc;
    auto w = accel::annotatedWorkload(models::ModelId::MobileNetV2);

    sim::RunStats serial;
    for (const auto &l : w.layers)
        serial += acc.runLayer(l);

    runtime::RuntimeOptions ro;
    ro.threads = 4;
    runtime::SimDriver driver(ro);
    auto batched = driver.runLayers(acc, w.layers);

    EXPECT_EQ(batched.cycles, serial.cycles);
    EXPECT_EQ(batched.dramTrafficBits, serial.dramTrafficBits);
    for (size_t c = 0; c < sim::kNumComponents; ++c)
        EXPECT_EQ(batched.energyPj[c], serial.energyPj[c])
            << sim::componentName((sim::Component)c);
}

TEST(SimDriver, SweepIsBitIdenticalAcrossThreadCounts)
{
    auto make_accs = [] {
        std::vector<accel::AcceleratorPtr> accs;
        accs.push_back(std::make_unique<accel::DianNao>());
        accs.push_back(std::make_unique<accel::Scnn>());
        accs.push_back(std::make_unique<accel::SmartExchangeAccel>());
        return accs;
    };
    auto accs = make_accs();
    std::vector<sim::Workload> workloads;
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::VGG19));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::ResNet164));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::MobileNetV2));

    std::vector<runtime::SimResults> all;
    for (int threads : {0, 1, 8}) {
        runtime::RuntimeOptions ro;
        ro.threads = threads;
        runtime::SimDriver driver(ro);
        all.push_back(driver.sweep(accs, workloads, true));
    }
    for (size_t v = 1; v < all.size(); ++v) {
        ASSERT_EQ(all[v].size(), all[0].size());
        for (size_t ai = 0; ai < all[0].size(); ++ai)
            for (size_t wi = 0; wi < all[0][ai].size(); ++wi) {
                const auto &a = all[0][ai][wi];
                const auto &b = all[v][ai][wi];
                ASSERT_EQ(a.run, b.run);
                EXPECT_EQ(a.stats.cycles, b.stats.cycles);
                EXPECT_EQ(a.stats.dramTrafficBits,
                          b.stats.dramTrafficBits);
                for (size_t c = 0; c < sim::kNumComponents; ++c)
                    EXPECT_EQ(a.stats.energyPj[c],
                              b.stats.energyPj[c])
                        << "variant " << v << " cell (" << ai << ","
                        << wi << ") component "
                        << sim::componentName((sim::Component)c);
            }
    }
}

TEST(SimDriver, SweepMatchesRunNetworkAndHonorsSkips)
{
    std::vector<accel::AcceleratorPtr> accs;
    accs.push_back(std::make_unique<accel::DianNao>());
    accs.push_back(std::make_unique<accel::SmartExchangeAccel>());

    std::vector<sim::Workload> workloads;
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::VGG19));
    workloads.push_back(
        accel::annotatedWorkload(models::ModelId::MobileNetV2));

    runtime::RuntimeOptions ro;
    ro.threads = 3;
    runtime::SimDriver driver(ro);
    auto cells = driver.sweep(accs, workloads, /*include_fc=*/false,
                              [](size_t ai, size_t wi) {
                                  return ai == 0 && wi == 1;  // skip
                              });

    ASSERT_EQ(cells.size(), 2u);
    ASSERT_EQ(cells[0].size(), 2u);
    EXPECT_FALSE(cells[0][1].run);

    for (size_t ai = 0; ai < accs.size(); ++ai)
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            if (ai == 0 && wi == 1)
                continue;
            ASSERT_TRUE(cells[ai][wi].run);
            auto ref = accs[ai]->runNetwork(workloads[wi], false);
            EXPECT_EQ(cells[ai][wi].stats.cycles, ref.cycles);
            EXPECT_EQ(cells[ai][wi].stats.totalEnergyPj(),
                      ref.totalEnergyPj());
        }
}

} // namespace
} // namespace se
