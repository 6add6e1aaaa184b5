/**
 * @file
 * Tests of the se::serve layer: InferenceSession weight rebuild
 * policies and fidelity against the eager install path, ServeEngine
 * batching/fan-out correctness, and the determinism wall — responses
 * must be bit-identical to the compression-time net across kernel
 * ISAs, thread counts, batch sizes, flush policies and rebuild
 * policies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "base/failpoint.hh"
#include "base/hash.hh"
#include "base/random.hh"
#include "core/stream_loader.hh"
#include "kernels/dispatch.hh"
#include "nn/blocks.hh"
#include "serve/engine.hh"
#include "serve/front.hh"
#include "serve/latency.hh"
#include "serve/session.hh"

namespace se {
namespace {

constexpr int64_t kInC = 3, kInH = 6, kInW = 6, kClasses = 10;

/** A compact CNN with all three reshape rules and a real forward. */
std::unique_ptr<nn::Sequential>
makeServeCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kInC, 8, 3, 1, 1, 1, rng, false);
    net->add<nn::BatchNorm2d>(8);
    net->add<nn::ReLU>();
    net->add<nn::Conv2d>(8, 16, 1, 1, 0, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(16, kClasses, rng, false);
    return net;
}

struct ShippedModel
{
    std::shared_ptr<const std::vector<core::SeLayerRecord>> records;
    std::unique_ptr<nn::Sequential> reference;  ///< eager-installed
    core::SeOptions seOpts;
    core::ApplyOptions applyOpts;
};

ShippedModel
shipModel(uint64_t seed = 51)
{
    ShippedModel s;
    s.seOpts.vectorThreshold = 0.01;
    s.reference = makeServeCnn(seed);
    auto compressed =
        core::compressToRecords(*s.reference, s.seOpts, s.applyOpts);
    s.records = std::make_shared<std::vector<core::SeLayerRecord>>(
        std::move(compressed.records));
    return s;
}

Tensor
makeInput(uint64_t seed, int64_t n = 1)
{
    Rng rng(seed);
    return randn({n, kInC, kInH, kInW}, rng, 0.0f, 1.0f);
}

// ------------------------------------------------- InferenceSession

TEST(InferenceSession, MatchesEagerInstallBitForBit)
{
    auto shipped = shipModel(51);
    serve::InferenceSession session(makeServeCnn(51), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    EXPECT_EQ(session.rebuildableLayers(), shipped.records->size());

    Tensor x = makeInput(1, 4);
    Tensor ref = shipped.reference->forward(x, false);
    Tensor got = session.forward(x);
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          (size_t)got.size() * sizeof(float)),
              0);
}

TEST(InferenceSession, CachedModeRebuildsEachLayerOnce)
{
    auto shipped = shipModel(52);
    serve::InferenceSession session(makeServeCnn(52), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    const auto layers = (uint64_t)session.rebuildableLayers();
    Tensor x = makeInput(2);
    session.forward(x);
    session.forward(x);
    session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, layers);
    EXPECT_EQ(session.stats().warmRebuilds, 0u);
    EXPECT_EQ(session.stats().forwardCalls, 3u);
}

TEST(InferenceSession, PerCallModeRebuildsEveryForward)
{
    auto shipped = shipModel(53);
    serve::SessionOptions warm_opts;
    warm_opts.rebuildPerCall = true;
    warm_opts.cacheRebuiltWeights = true;
    serve::InferenceSession warm(makeServeCnn(53), shipped.records,
                                 shipped.seOpts, shipped.applyOpts,
                                 warm_opts);
    const auto layers = (uint64_t)warm.rebuildableLayers();
    Tensor x = makeInput(3);
    Tensor y1 = warm.forward(x);
    Tensor y2 = warm.forward(x);
    // First call cold, second restored from the per-layer cache.
    EXPECT_EQ(warm.stats().coldRebuilds, layers);
    EXPECT_EQ(warm.stats().warmRebuilds, layers);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);

    serve::SessionOptions cold_opts;
    cold_opts.rebuildPerCall = true;
    cold_opts.cacheRebuiltWeights = false;
    serve::InferenceSession cold(makeServeCnn(53), shipped.records,
                                 shipped.seOpts, shipped.applyOpts,
                                 cold_opts);
    cold.forward(x);
    cold.forward(x);
    EXPECT_EQ(cold.stats().coldRebuilds, 2 * layers);
    EXPECT_EQ(cold.stats().warmRebuilds, 0u);
}

TEST(InferenceSession, InvalidateThenWarmRebuild)
{
    auto shipped = shipModel(54);
    serve::InferenceSession session(makeServeCnn(54), shipped.records,
                                    shipped.seOpts,
                                    shipped.applyOpts);
    const auto layers = (uint64_t)session.rebuildableLayers();
    Tensor x = makeInput(4);
    Tensor y1 = session.forward(x);
    session.invalidateWeights();
    Tensor y2 = session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, layers);
    EXPECT_EQ(session.stats().warmRebuilds, layers);
    EXPECT_EQ(std::memcmp(y1.data(), y2.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);

    session.clearRebuildCache();
    Tensor y3 = session.forward(x);
    EXPECT_EQ(session.stats().coldRebuilds, 2 * layers);
    EXPECT_EQ(std::memcmp(y1.data(), y3.data(),
                          (size_t)y1.size() * sizeof(float)),
              0);
}

TEST(InferenceSession, RejectsMismatchedArchitecture)
{
    auto shipped = shipModel(55);
    Rng rng(56);
    auto wrong = std::make_unique<nn::Sequential>();
    wrong->add<nn::Conv2d>(kInC, 4, 3, 1, 1, 1, rng, false);
    wrong->add<nn::Linear>(16, kClasses, rng, false);
    EXPECT_THROW(serve::InferenceSession(std::move(wrong),
                                         shipped.records,
                                         shipped.seOpts,
                                         shipped.applyOpts),
                 core::ModelFileError);
}

// ------------------------------------------------------ ServeEngine

TEST(ServeEngine, AnswersMatchDirectSessionForward)
{
    auto shipped = shipModel(61);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(61); },
        shipped.seOpts, shipped.applyOpts, opts);
    EXPECT_EQ(engine.replicaCount(), 2);

    const int n = 17;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(
            makeInput(100 + (uint64_t)i).reshaped(
                {kInC, kInH, kInW})));
    engine.drain();

    for (int i = 0; i < n; ++i) {
        Tensor got = futs[(size_t)i].get();
        Tensor ref = shipped.reference->forward(
            makeInput(100 + (uint64_t)i), false);
        ASSERT_EQ(got.size(), ref.size());
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              (size_t)got.size() * sizeof(float)),
                  0)
            << "request " << i;
    }

    auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);
    EXPECT_GE(st.batches, 1u);
    EXPECT_LE(st.p50Ms, st.p95Ms);
    EXPECT_LE(st.p95Ms, st.p99Ms);
    EXPECT_LE(st.p99Ms, st.maxMs);
}

TEST(ServeEngine, DeterministicAcrossThreadsBatchingAndPolicies)
{
    auto shipped = shipModel(62);
    const int n = 23;

    struct Config
    {
        int threads;
        size_t maxBatch;
        serve::FlushPolicy flush;
        bool rebuildPerCall;
    };
    const Config configs[] = {
        {0, 1, serve::FlushPolicy::Greedy, false},
        {1, 4, serve::FlushPolicy::Greedy, false},
        {8, 3, serve::FlushPolicy::Greedy, false},
        {8, 8, serve::FlushPolicy::Full, false},
        {2, 5, serve::FlushPolicy::Greedy, true},
        {2, 6, serve::FlushPolicy::Deadline, false},
        {0, 4, serve::FlushPolicy::Deadline, true},
    };

    std::vector<uint64_t> digests;
    for (const Config &cfg : configs) {
        serve::ServeOptions opts;
        opts.threads = cfg.threads;
        opts.maxBatch = cfg.maxBatch;
        opts.flush = cfg.flush;
        opts.session.rebuildPerCall = cfg.rebuildPerCall;
        serve::ServeEngine engine(
            shipped.records, [] { return makeServeCnn(62); },
            shipped.seOpts, shipped.applyOpts, opts);

        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < n; ++i)
            futs.push_back(
                engine.submit(makeInput(200 + (uint64_t)i)));
        engine.drain();

        uint64_t digest = kFnvOffsetBasis;
        for (auto &f : futs)
            digest = hashTensor(f.get(), digest);
        digests.push_back(digest);
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0])
            << "config " << i << " produced different responses";
}

TEST(ServeEngine, FullFlushPolicyWaitsForFullBatches)
{
    auto shipped = shipModel(63);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 4;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(63); },
        shipped.seOpts, shipped.applyOpts, opts);

    // 4 requests = exactly one full batch; drain flushes nothing.
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    engine.drain();
    EXPECT_EQ(engine.stats().batches, 1u);
    EXPECT_DOUBLE_EQ(engine.stats().meanBatchSize, 4.0);

    // 3 more sit below the threshold until drain flushes them.
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    engine.drain();
    EXPECT_EQ(engine.stats().requests, 7u);
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());

    // stop() flushes a held partial batch too: everything accepted
    // is answered and counted, then submits are refused.
    std::vector<std::future<Tensor>> held;
    for (int i = 0; i < 2; ++i)
        held.push_back(engine.submit(makeInput((uint64_t)i)));
    engine.stop();
    for (auto &f : held)
        EXPECT_NO_THROW(f.get());
    EXPECT_EQ(engine.stats().requests, 9u);
    EXPECT_THROW(engine.submit(makeInput(4)),
                 serve::EngineStoppedError);
}

TEST(ServeEngine, MalformedShapeFailsOnlyItselfNotItsNeighbors)
{
    // Regression: a malformed request used to poison its whole
    // micro-batch (runBatch threw "mixed sample shapes" and failed
    // every neighbor). Admission-time validation must reject only
    // the malformed request.
    auto shipped = shipModel(64);
    serve::ServeOptions opts;
    opts.threads = 0;  // inline: everything lands in one batch
    opts.maxBatch = 64;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(64); },
        shipped.seOpts, shipped.applyOpts, opts);

    // Mixed-shape flood: good and bad interleaved.
    const int rounds = 10;
    std::vector<std::future<Tensor>> good, bad;
    Rng rng(2);
    for (int i = 0; i < rounds; ++i) {
        good.push_back(engine.submit(makeInput((uint64_t)i)));
        bad.push_back(
            engine.submit(randn({kInC, kInH + 1, kInW}, rng)));
        // A 4-D input with batch dim != 1 is malformed too.
        bad.push_back(
            engine.submit(randn({2, kInC, kInH, kInW}, rng)));
    }
    engine.drain();
    for (auto &f : bad)
        EXPECT_THROW(f.get(), std::invalid_argument);
    for (auto &f : good)
        EXPECT_NO_THROW(f.get());  // every well-formed neighbor answers
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)rounds);
    EXPECT_EQ(st.rejected, (uint64_t)(2 * rounds));
    EXPECT_EQ(st.failed, 0u);
}

TEST(ServeEngine, ExpectedSampleOptionPinsTheShapeUpFront)
{
    auto shipped = shipModel(66);
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.expectedSample = {kInC, kInH, kInW};
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(66); },
        shipped.seOpts, shipped.applyOpts, opts);

    // With the shape pinned, even the FIRST request can be rejected
    // (no first-request lock-in ambiguity).
    Rng rng(3);
    auto bad = engine.submit(randn({kInC, kInH, kInW + 2}, rng));
    auto good = engine.submit(makeInput(1));
    engine.drain();
    EXPECT_THROW(bad.get(), std::invalid_argument);
    EXPECT_NO_THROW(good.get());
    EXPECT_EQ(engine.stats().rejected, 1u);
    EXPECT_EQ(engine.stats().requests, 1u);
}

TEST(ServeEngine, QueueCapShedsWithAdmissionError)
{
    auto shipped = shipModel(67);
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.maxBatch = 64;
    opts.flush = serve::FlushPolicy::Full;  // hold the queue: builds
                                            // a backlog deterministically
    opts.queueCap = 4;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(67); },
        shipped.seOpts, shipped.applyOpts, opts);

    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 4; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    // Queue is at capacity and nothing dispatches under Full: the
    // next submits must shed, fail-fast and typed.
    EXPECT_THROW(engine.submit(makeInput(9)), serve::AdmissionError);
    EXPECT_THROW(engine.submit(makeInput(10)), serve::AdmissionError);
    engine.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    const auto st = engine.stats();
    EXPECT_EQ(st.shed, 2u);
    EXPECT_EQ(st.requests, 4u);
    // After the drain the queue has room again.
    auto late = engine.submit(makeInput(11));
    engine.drain();
    EXPECT_NO_THROW(late.get());
}

TEST(ServeEngine, SubmitOnStoppedEngineThrowsInsteadOfPanicking)
{
    // Regression: submit() after stop used to SE_ASSERT -> SE_PANIC
    // and kill the process.
    auto shipped = shipModel(68);
    serve::ServeOptions opts;
    opts.threads = 1;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(68); },
        shipped.seOpts, shipped.applyOpts, opts);
    auto before = engine.submit(makeInput(1));
    engine.stop();
    // stop() answers everything already accepted...
    EXPECT_NO_THROW(before.get());
    // ...and later submits throw a catchable typed error.
    EXPECT_THROW(engine.submit(makeInput(2)),
                 serve::EngineStoppedError);
    EXPECT_THROW(engine.submit(makeInput(3)), std::runtime_error);
    engine.stop();  // idempotent
}

TEST(ServeEngine, DeadlinePolicyFlushesPartialBatchWithoutDrain)
{
    auto shipped = shipModel(69);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 32;
    opts.flush = serve::FlushPolicy::Deadline;
    opts.flushDeadlineMs = 5.0;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(69); },
        shipped.seOpts, shipped.applyOpts, opts);

    // 3 requests < maxBatch: Full would hold them until drain(); the
    // deadline must close the batch by itself.
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < 3; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)i)));
    for (auto &f : futs)
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "deadline flush never fired";
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    EXPECT_EQ(engine.stats().requests, 3u);
}

TEST(ServeEngine, StatsIncludeEveryRequestWhoseFutureIsReady)
{
    // Regression (surfaced as a flake under `ctest -j2` machine
    // load): runBatch used to set promise values BEFORE committing
    // latencies under stats_mu_, so a waiter that woke on its future
    // and immediately called stats() could read requests == 0 after a
    // successful get(). The contract is now commit-then-fulfill: a
    // ready future implies its request is visible in stats(). The
    // serve_publish_delay failpoint parks the batch worker for 1ms at
    // the publish instant, turning the one-in-a-thousand preemption
    // into a deterministic one — this test fails every iteration
    // under the old ordering.
    failpoint::ScopedArm delay("serve_publish_delay", "after0");
    auto shipped = shipModel(75);
    serve::ServeOptions opts;
    opts.threads = 1;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(75); },
        shipped.seOpts, shipped.applyOpts, opts);

    for (uint64_t i = 0; i < 50; ++i) {
        auto fut = engine.submit(makeInput(i));
        ASSERT_NO_THROW(fut.get());
        EXPECT_EQ(engine.stats().requests, i + 1)
            << "future ready but stats() missed the request "
               "(iteration "
            << i << ")";
    }
}

TEST(ServeEngine, ConcurrentDrainersAllObserveTheFlush)
{
    // Regression: `draining_` was a bool reset by whichever drainer
    // woke first; the loser could wait forever behind a Full hold.
    auto shipped = shipModel(70);
    serve::ServeOptions opts;
    opts.threads = 1;
    opts.maxBatch = 16;
    opts.flush = serve::FlushPolicy::Full;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(70); },
        shipped.seOpts, shipped.applyOpts, opts);

    for (int round = 0; round < 3; ++round) {
        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < 5; ++i)  // below maxBatch: needs a flush
            futs.push_back(engine.submit(makeInput((uint64_t)i)));
        std::thread d1([&] { engine.drain(); });
        std::thread d2([&] { engine.drain(); });
        d1.join();
        d2.join();
        for (auto &f : futs)
            ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready);
    }
    EXPECT_EQ(engine.stats().requests, 15u);
}

// ------------------------------------------------ LatencyReservoir

TEST(LatencyReservoir, HoldsConstantMemoryUnderAMillionAdds)
{
    // Regression: engine latency history used to grow without bound.
    serve::LatencyReservoir res(512);
    Rng rng(7);
    for (int i = 0; i < 1000000; ++i)
        res.add(rng.uniform(0.0f, 10.0f));
    EXPECT_EQ(res.count(), 1000000u);
    EXPECT_LE(res.sampleSize(), 512u);  // constant, not 1e6
    EXPECT_LE(res.sortedSample().size(), 512u);
}

TEST(LatencyReservoir, KnownDistributionStatsWithinSamplingError)
{
    // Uniform 0..9999 presented in shuffled order: exact running
    // aggregates, percentiles within reservoir sampling error.
    const int n = 10000;
    std::vector<double> values;
    values.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        values.push_back((double)i);
    Rng rng(11);
    std::shuffle(values.begin(), values.end(), rng.raw());

    serve::LatencyReservoir res(1024);
    for (double v : values)
        res.add(v);

    EXPECT_EQ(res.count(), (uint64_t)n);
    EXPECT_DOUBLE_EQ(res.max(), 9999.0);        // exact
    EXPECT_NEAR(res.mean(), 4999.5, 1e-9);      // exact running sum
    const auto sorted = res.sortedSample();
    ASSERT_EQ(sorted.size(), 1024u);
    // 1024 uniform samples: the qth sample quantile has stddev
    // ~ n*sqrt(q(1-q)/1024) ≈ 156 at q=0.5; 5 sigma bounds.
    const auto pct = [&](double q) {
        return sorted[std::min(
            sorted.size() - 1,
            (size_t)(q * (double)sorted.size()))];
    };
    EXPECT_NEAR(pct(0.50), 0.50 * n, 800.0);
    EXPECT_NEAR(pct(0.95), 0.95 * n, 500.0);
    EXPECT_NEAR(pct(0.99), 0.99 * n, 300.0);
}

TEST(LatencyReservoir, SmallStreamsAreExact)
{
    serve::LatencyReservoir res(100);
    for (int i = 1; i <= 10; ++i)
        res.add((double)i);
    EXPECT_EQ(res.count(), 10u);
    EXPECT_EQ(res.sampleSize(), 10u);  // below cap: the full stream
    EXPECT_DOUBLE_EQ(res.mean(), 5.5);
    EXPECT_DOUBLE_EQ(res.max(), 10.0);
    EXPECT_DOUBLE_EQ(res.sortedSample().front(), 1.0);
}

TEST(ServeEngine, StatsStayBoundedAndCorrectUnderSustainedTraffic)
{
    // Engine-level soak at a tiny reservoir cap: counters stay exact
    // while the percentile source stays bounded.
    auto shipped = shipModel(71);
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 8;
    opts.latencyReservoirCap = 32;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(71); },
        shipped.seOpts, shipped.applyOpts, opts);

    const int n = 300;
    std::vector<std::future<Tensor>> futs;
    futs.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)(i % 7))));
    engine.drain();
    for (auto &f : futs)
        EXPECT_NO_THROW(f.get());
    const auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);  // exact despite sampling
    EXPECT_GT(st.meanLatencyMs, 0.0);
    EXPECT_LE(st.p50Ms, st.p95Ms);
    EXPECT_LE(st.p95Ms, st.p99Ms);
    EXPECT_LE(st.p99Ms, st.maxMs);
}

// ------------------------------------------------------- ServeFront

/** A second, structurally different architecture for multi-model. */
std::unique_ptr<nn::Sequential>
makeServeMlpCnn(uint64_t seed)
{
    Rng rng(seed);
    auto net = std::make_unique<nn::Sequential>();
    net->add<nn::Conv2d>(kInC, 6, 3, 1, 1, 1, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::GlobalAvgPool>();
    net->add<nn::Flatten>();
    net->add<nn::Linear>(6, 12, rng, false);
    net->add<nn::ReLU>();
    net->add<nn::Linear>(12, kClasses, rng, false);
    return net;
}

TEST(ServeFront, TwoModelsServeConcurrentlyBitIdentical)
{
    auto shippedA = shipModel(81);

    ShippedModel shippedB;
    shippedB.seOpts.vectorThreshold = 0.01;
    shippedB.reference = makeServeMlpCnn(82);
    auto compressedB = core::compressToRecords(
        *shippedB.reference, shippedB.seOpts, shippedB.applyOpts);
    shippedB.records =
        std::make_shared<std::vector<core::SeLayerRecord>>(
            std::move(compressedB.records));

    serve::ModelRegistry reg;
    reg.add("cnn-a", {shippedA.records,
                      [] { return makeServeCnn(81); },
                      shippedA.seOpts, shippedA.applyOpts});
    reg.add("mlp-b", {shippedB.records,
                      [] { return makeServeMlpCnn(82); },
                      shippedB.seOpts, shippedB.applyOpts});
    EXPECT_TRUE(reg.contains("cnn-a"));
    EXPECT_FALSE(reg.contains("cnn-c"));
    EXPECT_THROW(reg.at("cnn-c"), serve::UnknownModelError);
    EXPECT_THROW(
        reg.add("cnn-a", {shippedA.records,
                          [] { return makeServeCnn(81); },
                          shippedA.seOpts, shippedA.applyOpts}),
        std::invalid_argument);

    serve::ServeOptions opts;
    opts.threads = 4;  // split 2+2 across the models
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(front.modelCount(), 2u);
    EXPECT_EQ(front.replicaCount(), 4);

    const int n = 12;
    std::vector<std::future<Tensor>> futA, futB;
    for (int i = 0; i < n; ++i) {  // interleaved two-tenant traffic
        futA.push_back(
            front.submit("cnn-a", makeInput(300 + (uint64_t)i)));
        futB.push_back(
            front.submit("mlp-b", makeInput(400 + (uint64_t)i)));
    }
    EXPECT_THROW(front.submit("nope", makeInput(1)),
                 serve::UnknownModelError);
    front.drain();

    // Responses must be bit-identical to each model's single-model
    // reference forward.
    for (int i = 0; i < n; ++i) {
        Tensor gotA = futA[(size_t)i].get();
        Tensor refA = shippedA.reference->forward(
            makeInput(300 + (uint64_t)i), false);
        ASSERT_EQ(gotA.size(), refA.size());
        EXPECT_EQ(std::memcmp(gotA.data(), refA.data(),
                              (size_t)gotA.size() * sizeof(float)),
                  0)
            << "cnn-a request " << i;
        Tensor gotB = futB[(size_t)i].get();
        Tensor refB = shippedB.reference->forward(
            makeInput(400 + (uint64_t)i), false);
        ASSERT_EQ(gotB.size(), refB.size());
        EXPECT_EQ(std::memcmp(gotB.data(), refB.data(),
                              (size_t)gotB.size() * sizeof(float)),
                  0)
            << "mlp-b request " << i;
    }

    EXPECT_EQ(front.stats("cnn-a").requests, (uint64_t)n);
    EXPECT_EQ(front.stats("mlp-b").requests, (uint64_t)n);
    const auto agg = front.aggregateStats();
    EXPECT_EQ(agg.requests, (uint64_t)(2 * n));
    EXPECT_EQ(agg.failed + agg.rejected + agg.shed, 0u);

    front.stop();
    EXPECT_THROW(front.submit("cnn-a", makeInput(1)),
                 serve::EngineStoppedError);
}

TEST(ServeFront, PerModelShapeIsolation)
{
    // Each engine locks its own shape; one tenant's malformed
    // traffic never disturbs the other tenant.
    auto shipped = shipModel(83);
    serve::ModelRegistry reg;
    reg.add("m1", {shipped.records, [] { return makeServeCnn(83); },
                   shipped.seOpts, shipped.applyOpts});
    reg.add("m2", {shipped.records, [] { return makeServeCnn(83); },
                   shipped.seOpts, shipped.applyOpts});
    serve::ServeOptions opts;
    opts.threads = 0;
    opts.expectedSample = {kInC, kInH, kInW};
    serve::ServeFront front(reg, opts);

    auto ok1 = front.submit("m1", makeInput(1));
    Rng rng(4);
    auto bad2 =
        front.submit("m2", randn({kInC, kInH + 2, kInW}, rng));
    auto ok2 = front.submit("m2", makeInput(2));
    front.drain();
    EXPECT_NO_THROW(ok1.get());
    EXPECT_NO_THROW(ok2.get());
    EXPECT_THROW(bad2.get(), std::invalid_argument);
    EXPECT_EQ(front.stats("m1").rejected, 0u);
    EXPECT_EQ(front.stats("m2").rejected, 1u);
}

// ------------------------------------------ packed-code serving

TEST(InferenceSession, WiderAlphabetRefusedByLevelCount)
{
    // Serving rebuilds only from 4-bit packed codes, so records
    // compressed with coefBits = 6 (a 31-level alphabet) cannot bind:
    // the refusal is a ModelFileError naming the level count.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    se_opts.coefBits = 6;
    core::ApplyOptions apply_opts;
    auto net = makeServeCnn(91);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);
    ASSERT_FALSE(compressed.records.empty());
    const int levels =
        compressed.records.front().pieces.front().alphabet.numLevels;
    ASSERT_EQ(levels, 31);
    auto records =
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));
    try {
        serve::InferenceSession session(makeServeCnn(91), records,
                                        se_opts, apply_opts);
        FAIL() << "a " << levels << "-level alphabet bound";
    } catch (const core::ModelFileError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "alphabet has 31 levels; a 4-bit packed code "
                      "carries at most 7"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeFront, PrunedV4BundleServesWithNoOutOfBandRestore)
{
    // Compress WITH channel pruning, ship as v4, reload, and serve
    // through the front from the bundle alone: the reference is the
    // compression-time net itself (bases pinned to the int8 grid).
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    apply_opts.channelGammaThreshold = 1e-3;

    auto reference = makeServeCnn(93);
    // Deterministically knock two BN channels under the threshold and
    // give the running stats non-factory values.
    reference->visit([&](nn::Layer &l) {
        if (auto *bn = dynamic_cast<nn::BatchNorm2d *>(&l)) {
            bn->gammaTensor()[1] = 1e-4f;
            bn->gammaTensor()[3] = 1e-4f;
            for (int64_t c = 0;
                 c < bn->runningMeanTensor().size(); ++c) {
                bn->runningMeanTensor()[c] = 0.05f * (float)(c + 1);
                bn->runningVarTensor()[c] = 1.0f + 0.1f * (float)c;
            }
        }
    });
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    ASSERT_FALSE(compressed.dense.empty());
    core::quantizeBasisAtCompress(*reference, compressed, se_opts,
                                  apply_opts);

    std::stringstream ss;
    core::saveModelV4(ss, compressed.records, compressed.dense);
    auto bundle = core::loadModelBundle(ss);

    serve::ModelRegistry reg;
    reg.add("pruned",
            serve::makeModelEntry(std::move(bundle),
                                  [] { return makeServeCnn(93); },
                                  se_opts, apply_opts));
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);

    const int n = 8;
    std::vector<std::future<Tensor>> futs;
    for (int i = 0; i < n; ++i)
        futs.push_back(
            front.submit("pruned", makeInput(700 + (uint64_t)i)));
    front.drain();
    for (int i = 0; i < n; ++i) {
        Tensor ref = reference->forward(
            makeInput(700 + (uint64_t)i), false);
        Tensor y = futs[(size_t)i].get();
        ASSERT_EQ(y.size(), ref.size());
        EXPECT_EQ(std::memcmp(y.data(), ref.data(),
                              (size_t)ref.size() * sizeof(float)),
                  0)
            << "request " << i;
    }
}

TEST(InferenceSession, DenseStateInstallRejectsWrongFactory)
{
    // A dense residual bound to a structurally different factory
    // must throw at construction, never serve garbage.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    auto net = makeServeCnn(94);
    auto compressed =
        core::compressToRecords(*net, se_opts, apply_opts);
    ASSERT_FALSE(compressed.dense.empty());
    compressed.dense.pop_back();  // incomplete residual

    serve::SessionOptions opts;
    opts.denseState =
        std::make_shared<const std::vector<core::DenseTensor>>(
            std::move(compressed.dense));
    auto records =
        std::make_shared<const std::vector<core::SeLayerRecord>>(
            std::move(compressed.records));
    EXPECT_THROW(
        serve::InferenceSession(makeServeCnn(94), records, se_opts,
                                apply_opts, opts),
        core::ModelFileError);
}

TEST(ServeEngine, HeavyTrafficManyWaiters)
{
    auto shipped = shipModel(65);
    serve::ServeOptions opts;
    opts.threads = 4;
    opts.maxBatch = 6;
    serve::ServeEngine engine(
        shipped.records, [] { return makeServeCnn(65); },
        shipped.seOpts, shipped.applyOpts, opts);

    const int n = 200;
    std::vector<std::future<Tensor>> futs;
    futs.reserve((size_t)n);
    for (int i = 0; i < n; ++i)
        futs.push_back(engine.submit(makeInput((uint64_t)(i % 5))));
    engine.drain();
    for (int i = 0; i < n; ++i) {
        Tensor r = futs[(size_t)i].get();
        EXPECT_EQ(r.size(), kClasses);
    }
    auto st = engine.stats();
    EXPECT_EQ(st.requests, (uint64_t)n);
    EXPECT_GE(st.meanBatchSize, 1.0);
}

// ------------------------------------ model-file v4 streamed serving

/**
 * Compress a makeServeCnn(seed), pin its bases to the int8 grid (the
 * v4 compress-time contract) and write the v4 bundle to `path`. The
 * returned net is the quantized compression-time reference every
 * served response must bit-match.
 */
std::unique_ptr<nn::Sequential>
shipV4Model(uint64_t seed, const std::string &path,
            const core::SeOptions &se_opts,
            const core::ApplyOptions &apply_opts)
{
    auto reference = makeServeCnn(seed);
    auto compressed =
        core::compressToRecords(*reference, se_opts, apply_opts);
    core::quantizeBasisAtCompress(*reference, compressed, se_opts,
                                  apply_opts);
    core::saveModelV4File(path, compressed.bundle());
    return reference;
}

TEST(ServeFrontV4, StreamedAndRecordsPathsAnswerIdentically)
{
    // The loader is an access policy, not a value policy: lazy mmap
    // and the classic loadModelBundleFile -> records path must
    // produce bit-identical responses — and so must every
    // thread/batch configuration (the SE_THREADS invariance,
    // exercised programmatically).
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const std::string path = "/tmp/se_serve_v4_loaders.sexm";
    auto reference = shipV4Model(97, path, se_opts, apply_opts);

    const int n = 8;
    std::vector<uint64_t> digests;
    for (const auto &[threads, batch] :
         std::vector<std::pair<int, size_t>>{
             {0, 1}, {1, 4}, {4, 3}}) {
        for (const bool streamed : {true, false}) {
            serve::ModelRegistry reg;
            if (streamed)
                reg.add("m", serve::makeModelEntry(
                                 std::make_shared<core::StreamedModel>(
                                     path),
                                 [] { return makeServeCnn(97); },
                                 se_opts, apply_opts));
            else  // eager records path, no streaming
                reg.add("m", serve::makeModelEntry(
                                 core::loadModelBundleFile(path),
                                 [] { return makeServeCnn(97); },
                                 se_opts, apply_opts));
            serve::ServeOptions opts;
            opts.threads = threads;
            opts.maxBatch = batch;
            serve::ServeFront front(reg, opts);
            std::vector<std::future<Tensor>> futs;
            for (int i = 0; i < n; ++i)
                futs.push_back(front.submit(
                    "m", makeInput(1000 + (uint64_t)i)));
            front.drain();
            uint64_t digest = kFnvOffsetBasis;
            for (auto &f : futs)
                digest = hashTensor(f.get(), digest);
            digests.push_back(digest);
        }
    }
    for (size_t i = 1; i < digests.size(); ++i)
        EXPECT_EQ(digests[i], digests[0]) << "config " << i;

    // All equal the quantized compression-time net's own forward.
    uint64_t ref = kFnvOffsetBasis;
    for (int i = 0; i < n; ++i) {
        Tensor y =
            reference->forward(makeInput(1000 + (uint64_t)i), false);
        ref = hashTensor(y.reshaped({y.size()}), ref);
    }
    EXPECT_EQ(digests[0], ref);
}

TEST(ServeFrontV4, UntouchedStreamedModelStaysCold)
{
    // The point of the lazy loader: in a multi-model front, a
    // streamed model nobody submits to never builds its engine and
    // never decodes a piece.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const std::string hot_path = "/tmp/se_serve_v4_hot.sexm";
    const std::string cold_path = "/tmp/se_serve_v4_cold.sexm";
    auto hot_ref = shipV4Model(98, hot_path, se_opts, apply_opts);
    shipV4Model(99, cold_path, se_opts, apply_opts);

    auto hot = std::make_shared<core::StreamedModel>(hot_path);
    auto cold = std::make_shared<core::StreamedModel>(cold_path);
    serve::ModelRegistry reg;
    reg.add("hot", serve::makeModelEntry(
                       hot, [] { return makeServeCnn(98); },
                       se_opts, apply_opts));
    reg.add("cold", serve::makeModelEntry(
                        cold, [] { return makeServeCnn(99); },
                        se_opts, apply_opts));

    serve::ServeOptions opts;
    opts.threads = 2;
    opts.maxBatch = 4;
    serve::ServeFront front(reg, opts);
    EXPECT_FALSE(front.engineBuilt("hot"));
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(hot->decodedPieces(), 0u);
    EXPECT_EQ(cold->decodedPieces(), 0u);
    EXPECT_EQ(front.replicaCount(), 0);  // no engine built yet

    auto fut = front.submit("hot", makeInput(1100));
    front.drain();
    Tensor ref = hot_ref->forward(makeInput(1100), false);
    Tensor got = fut.get();
    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                          (size_t)ref.size() * sizeof(float)),
              0);

    // The hot model paid its decode; the cold one still has not.
    EXPECT_TRUE(front.engineBuilt("hot"));
    EXPECT_GT(hot->decodedPieces(), 0u);
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(cold->decodedPieces(), 0u);
    EXPECT_GT(front.replicaCount(), 0);
    EXPECT_EQ(front.stats("hot").requests, 1u);
    EXPECT_EQ(front.stats("cold").requests, 0u);  // all-zero stats

    // A stopped front refuses to build the cold engine on a late
    // first submit instead of standing up workers post-stop.
    front.stop();
    EXPECT_THROW(front.submit("cold", makeInput(1)),
                 serve::EngineStoppedError);
    EXPECT_FALSE(front.engineBuilt("cold"));
    EXPECT_EQ(cold->decodedPieces(), 0u);
}

// ---------------------------------------------- generations / reload

TEST(ModelRegistryGenerations, ReplaceBumpsTagInPlace)
{
    auto shipped = shipModel(61);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{shipped.records,
                                   [] { return makeServeCnn(61); },
                                   shipped.seOpts, shipped.applyOpts,
                                   nullptr});
    reg.add("n", serve::ModelEntry{shipped.records,
                                   [] { return makeServeCnn(61); },
                                   shipped.seOpts, shipped.applyOpts,
                                   nullptr});
    EXPECT_EQ(reg.generationOf("m"), 1u);

    auto next = shipModel(62);
    reg.replace("m", serve::ModelEntry{next.records,
                                       [] { return makeServeCnn(62); },
                                       next.seOpts, next.applyOpts,
                                       nullptr});
    EXPECT_EQ(reg.generationOf("m"), 2u);
    EXPECT_EQ(reg.generationOf("n"), 1u);  // untouched neighbor
    EXPECT_EQ(reg.ids(), (std::vector<std::string>{"m", "n"}));
    EXPECT_EQ(reg.at("m").records.get(), next.records.get());

    EXPECT_THROW(
        reg.replace("absent",
                    serve::ModelEntry{next.records,
                                      [] { return makeServeCnn(62); },
                                      next.seOpts, next.applyOpts,
                                      nullptr}),
        serve::UnknownModelError);
    EXPECT_THROW(reg.replace("m", serve::ModelEntry{}),
                 std::invalid_argument);  // invalid entry, valid id
    EXPECT_THROW(reg.generationOf("absent"),
                 serve::UnknownModelError);
}

TEST(ServeFrontReload, SwapsGenerationsBitIdenticalZeroDrops)
{
    auto gen1 = shipModel(63);
    auto gen2 = shipModel(64);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{gen1.records,
                                   [] { return makeServeCnn(63); },
                                   gen1.seOpts, gen1.applyOpts,
                                   nullptr});
    serve::ServeOptions opts;
    opts.threads = 2;
    serve::ServeFront front(reg, opts);
    EXPECT_EQ(front.generation("m"), 1u);
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);

    Tensor x = makeInput(70);
    auto before = front.submit("m", x);
    front.drain();
    Tensor want1 = gen1.reference->forward(x, false);
    EXPECT_EQ(std::memcmp(before.get().data(), want1.data(),
                          (size_t)want1.size() * sizeof(float)),
              0);

    front.reloadModel(
        "m", serve::ModelEntry{gen2.records,
                               [] { return makeServeCnn(64); },
                               gen2.seOpts, gen2.applyOpts, nullptr});
    EXPECT_EQ(front.generation("m"), 2u);
    EXPECT_EQ(front.health("m"), serve::ModelHealth::Healthy);

    auto after = front.submit("m", x);
    front.drain();
    Tensor want2 = gen2.reference->forward(x, false);
    EXPECT_EQ(std::memcmp(after.get().data(), want2.data(),
                          (size_t)want2.size() * sizeof(float)),
              0);
    // Both generations' traffic shows up in the merged stats.
    EXPECT_EQ(front.stats("m").requests, 2u);
    EXPECT_EQ(front.aggregateStats().requests, 2u);
    front.stop();
}

TEST(ServeFrontReload, StageCountersSurviveTheFold)
{
    // stats() folds a retired generation's stage times into the
    // live one's, and aggregateStats() sums them over models.
    const auto entryFor = [](uint64_t seed) {
        ShippedModel m = shipModel(seed);
        serve::ModelEntry e;
        e.records = m.records;
        e.factory = [seed] { return makeServeCnn(seed); };
        e.seOpts = m.seOpts;
        e.applyOpts = m.applyOpts;
        return e;
    };
    serve::ModelRegistry reg;
    reg.add("a", entryFor(67));
    reg.add("b", entryFor(69));
    serve::ServeOptions opts;
    opts.threads = 2;
    opts.session.rebuildPerCall = true;
    opts.session.cacheRebuiltWeights = false;
    serve::ServeFront front(reg, opts);

    const auto serveSome = [&](const char *id, int count) {
        std::vector<std::future<Tensor>> futs;
        for (int i = 0; i < count; ++i)
            futs.push_back(front.submit(id, makeInput(80 + (uint64_t)i)));
        front.drain();
        for (auto &f : futs)
            f.get();
    };
    serveSome("a", 12);
    serveSome("b", 5);
    const serve::ServeStats retired = front.engine("a").stats();
    ASSERT_GT(retired.execMs, 0.0);
    ASSERT_GT(retired.decodeStallMs, 0.0);

    front.reloadModel("a", entryFor(68));
    serveSome("a", 3);
    const serve::ServeStats live = front.engine("a").stats();
    const serve::ServeStats a = front.stats("a");
    EXPECT_GE(a.formMs, retired.formMs + live.formMs);
    EXPECT_GE(a.execMs, retired.execMs + live.execMs);
    EXPECT_GE(a.completeMs, retired.completeMs + live.completeMs);
    EXPECT_GE(a.decodeStallMs,
              retired.decodeStallMs + live.decodeStallMs);
    EXPECT_EQ(a.requests, 15u);
    ASSERT_GT(a.batches, 0u);

    const serve::ServeStats b = front.stats("b");
    const serve::ServeStats agg = front.aggregateStats();
    EXPECT_EQ(agg.requests, a.requests + b.requests);
    EXPECT_EQ(agg.batches, a.batches + b.batches);
    EXPECT_DOUBLE_EQ(agg.formMs, a.formMs + b.formMs);
    EXPECT_DOUBLE_EQ(agg.execMs, a.execMs + b.execMs);
    EXPECT_DOUBLE_EQ(agg.completeMs, a.completeMs + b.completeMs);
    EXPECT_DOUBLE_EQ(agg.decodeStallMs,
                     a.decodeStallMs + b.decodeStallMs);
    front.stop();
}

TEST(ServeFrontReload, ConcurrentSubmitsRideTheSwap)
{
    auto gen1 = shipModel(65);
    auto gen2 = shipModel(66);
    serve::ModelRegistry reg;
    reg.add("m", serve::ModelEntry{gen1.records,
                                   [] { return makeServeCnn(65); },
                                   gen1.seOpts, gen1.applyOpts,
                                   nullptr});
    serve::ServeOptions opts;
    opts.threads = 2;
    serve::ServeFront front(reg, opts);

    Tensor x = makeInput(71);
    Tensor want1 = gen1.reference->forward(x, false);
    Tensor want2 = gen2.reference->forward(x, false);

    std::atomic<bool> done{false};
    std::atomic<int> answered{0}, dropped{0}, mismatched{0};
    std::thread traffic([&] {
        while (!done.load()) {
            try {
                Tensor y = front.submit("m", x).get();
                const bool is1 =
                    std::memcmp(y.data(), want1.data(),
                                (size_t)want1.size() *
                                    sizeof(float)) == 0;
                const bool is2 =
                    std::memcmp(y.data(), want2.data(),
                                (size_t)want2.size() *
                                    sizeof(float)) == 0;
                if (!is1 && !is2)
                    ++mismatched;
                ++answered;
            } catch (const serve::EngineStoppedError &) {
                // submit() retries across a swap internally; an
                // escape here is a dropped request.
                ++dropped;
            }
        }
    });
    for (int flip = 0; flip < 10; ++flip) {
        const auto &g = (flip % 2 == 0) ? gen2 : gen1;
        const uint64_t seed = (flip % 2 == 0) ? 66u : 65u;
        front.reloadModel(
            "m", serve::ModelEntry{g.records,
                                   [seed] {
                                       return makeServeCnn(seed);
                                   },
                                   g.seOpts, g.applyOpts, nullptr});
    }
    done = true;
    traffic.join();
    // Settle the live engine's stats: a future resolves before its
    // batch's counters land, so count only after a drain barrier.
    front.drain();
    EXPECT_EQ(dropped.load(), 0);
    EXPECT_EQ(mismatched.load(), 0);
    EXPECT_GT(answered.load(), 0);
    EXPECT_EQ(front.generation("m"), 11u);
    EXPECT_EQ((uint64_t)answered.load(),
              front.stats("m").requests);
    front.stop();
}

TEST(ServeFrontV4, SubmitVsStopRaceOnColdEntryNoDoubleBuild)
{
    // Regression (the old build-under-lock path): a first submit to a
    // cold streamed entry held the front-wide lock for the whole
    // piece-decode + engine build, so a concurrent stop() (or second
    // submit) stacked up behind it — and a badly timed pair could
    // build twice. The build now runs outside the lock under a
    // per-slot building flag.
    core::SeOptions se_opts;
    se_opts.vectorThreshold = 0.01;
    core::ApplyOptions apply_opts;
    const std::string path = "/tmp/se_serve_v4_stoprace.sexm";
    shipV4Model(100, path, se_opts, apply_opts);

    for (int round = 0; round < 8; ++round) {
        auto streamed = std::make_shared<core::StreamedModel>(path);
        std::atomic<int> factoryCalls{0};
        serve::ModelRegistry reg;
        reg.add("cold",
                serve::makeModelEntry(streamed,
                                      [&factoryCalls] {
                                          ++factoryCalls;
                                          return makeServeCnn(100);
                                      },
                                      se_opts, apply_opts));
        serve::ServeOptions opts;
        opts.threads = 0;  // one replica: any rebuild is visible
        serve::ServeFront front(reg, opts);

        std::atomic<int> refused{0}, served{0};
        std::vector<std::thread> submitters;
        for (int t = 0; t < 3; ++t)
            submitters.emplace_back([&] {
                try {
                    Tensor y =
                        front.submit("cold", makeInput(1200)).get();
                    (void)y;
                    ++served;
                } catch (const serve::EngineStoppedError &) {
                    ++refused;
                }
            });
        std::thread stopper([&] { front.stop(); });
        for (auto &t : submitters)
            t.join();
        stopper.join();  // joining at all proves no deadlock

        // At most one engine build (one replica) ever happened, even
        // with three racing first touches; every submit either got
        // an answer or a clean refusal.
        EXPECT_LE(factoryCalls.load(), 1) << "round " << round;
        EXPECT_EQ(served.load() + refused.load(), 3)
            << "round " << round;
    }
}

// ------------------------------------------- bit-identity wall

/** Force one micro-kernel ISA for a scope, restoring the previous. */
class ScopedIsa
{
  public:
    explicit ScopedIsa(kernels::KernelIsa isa)
        : prev_(kernels::activeIsa())
    {
        kernels::setActiveIsa(isa);
    }
    ~ScopedIsa() { kernels::setActiveIsa(prev_); }

  private:
    kernels::KernelIsa prev_;
};

TEST(ServePipeline, BitIdentityWallAcrossModesThreadsAndPolicies)
{
    // The engine answers every request bit-identically to the
    // compression-time net (the eager SeMatrix::reconstruct()
    // install) on every ISA x thread count x flush policy x rebuild
    // policy. Every cold rebuild runs the packed-code gemmCeB, so
    // this is the one reference check of the serving datapath.
    auto shipped = shipModel(142);
    const int n = 19;

    // The reference forward runs on the scalar kernels, the bit-exact
    // baseline, so a diverging row names the ISA at fault.
    uint64_t refDigest = kFnvOffsetBasis;
    {
        ScopedIsa scalar(kernels::KernelIsa::Scalar);
        for (int i = 0; i < n; ++i) {
            Tensor y = shipped.reference->forward(
                makeInput(1500 + (uint64_t)i), false);
            refDigest = hashTensor(y.reshaped({y.size()}), refDigest);
        }
    }

    struct Rebuild
    {
        const char *name;
        bool perCall;
        bool cache;
    };
    const Rebuild rebuilds[] = {
        {"cached", false, true},
        {"per-call warm", true, true},
        {"per-call cold", true, false},
    };
    struct Flush
    {
        const char *name;
        serve::FlushPolicy policy;
    };
    const Flush flushes[] = {
        {"greedy", serve::FlushPolicy::Greedy},
        {"full", serve::FlushPolicy::Full},
        {"deadline", serve::FlushPolicy::Deadline},
    };
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa scoped(isa);
        for (const int threads : {0, 1, 3}) {
            for (const Flush &flush : flushes) {
                for (const Rebuild &rb : rebuilds) {
                    const std::string cfg =
                        std::string(kernels::isaName(isa)) +
                        " threads=" + std::to_string(threads) +
                        " " + flush.name + " " + rb.name;
                    serve::ServeOptions opts;
                    opts.threads = threads;
                    opts.maxBatch = 3 + (size_t)threads;
                    opts.flush = flush.policy;
                    opts.session.rebuildPerCall = rb.perCall;
                    opts.session.cacheRebuiltWeights = rb.cache;
                    serve::ServeEngine engine(
                        shipped.records,
                        [] { return makeServeCnn(142); },
                        shipped.seOpts, shipped.applyOpts, opts);

                    std::vector<std::future<Tensor>> futs;
                    for (int i = 0; i < n; ++i)
                        futs.push_back(engine.submit(
                            makeInput(1500 + (uint64_t)i)));
                    engine.drain();

                    uint64_t digest = kFnvOffsetBasis;
                    for (auto &f : futs)
                        digest = hashTensor(f.get(), digest);
                    EXPECT_EQ(digest, refDigest)
                        << cfg << " diverged from the reference";

                    auto st = engine.stats();
                    EXPECT_EQ(st.requests, (uint64_t)n) << cfg;
                    EXPECT_EQ(st.failed, 0u) << cfg;
                }
            }
        }
    }
}

} // namespace
} // namespace se
