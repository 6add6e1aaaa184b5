/**
 * @file
 * Differential tests of the se::kernels layer against the legacy
 * loops in tests/reference/.
 *
 * The load-bearing invariant is bit-exactness of the fast paths
 * (conv/linear forward, linear backward, matmul): the golden benches
 * run on them, so "agrees with the oracle to the last bit" is exactly
 * "goldens cannot move".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "base/random.hh"
#include "core/model_file.hh"
#include "kernels/ce_gemm.hh"
#include "kernels/dispatch.hh"
#include "kernels/gemm.hh"
#include "kernels/kernels.hh"
#include "kernels/scratch.hh"
#include "linalg/linalg.hh"
#include "models/zoo.hh"
#include "nn/layers.hh"
#include "reference/reference.hh"

namespace {

using namespace se;

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

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       (size_t)a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------------- GEMM

TEST(Kernels, GemmMatchesReferenceBitExact)
{
    Rng rng(101);
    // Shapes straddle the register tile (8), the remainder paths and
    // the parallel-dispatch threshold.
    const std::vector<std::vector<int64_t>> shapes{
        {1, 1, 1},  {1, 7, 1},   {5, 1, 9},   {17, 23, 9},
        {8, 8, 8},  {33, 15, 1}, {64, 64, 64}, {96, 96, 96},
    };
    for (const auto &s : shapes) {
        Tensor a = randn({s[0], s[1]}, rng);
        Tensor b = randn({s[1], s[2]}, rng);
        EXPECT_TRUE(bitEqual(reference::matmul(a, b),
                             kernels::gemm(a, b)))
            << s[0] << "x" << s[1] << "x" << s[2];
    }
}

TEST(Kernels, GemmAdversarialShapes)
{
    Rng rng(102);
    // k = 0: no accumulation at all, output must be exactly zero.
    Tensor a0({3, 0});
    Tensor b0({0, 4});
    Tensor c0 = kernels::gemm(a0, b0);
    ASSERT_EQ(c0.dim(0), 3);
    ASSERT_EQ(c0.dim(1), 4);
    for (int64_t i = 0; i < c0.size(); ++i)
        EXPECT_EQ(c0[i], 0.0f);

    // 1xN and Nx1 degenerate panels.
    Tensor row = randn({1, 129}, rng);
    Tensor colv = randn({129, 1}, rng);
    EXPECT_TRUE(bitEqual(reference::matmul(row, colv),
                         kernels::gemm(row, colv)));
    EXPECT_TRUE(bitEqual(reference::matmul(colv, row),
                         kernels::gemm(colv, row)));
}

TEST(Kernels, GemmSparseInputsKeepZeroSkipSemantics)
{
    Rng rng(103);
    Tensor a = randn({31, 45}, rng);
    Tensor b = randn({45, 27}, rng);
    // SmartExchange Ce matrices are row-sparse; the blocked kernel
    // must keep the legacy zero-skip byte-compatible.
    for (int64_t i = 0; i < a.size(); i += 3)
        a[i] = 0.0f;
    EXPECT_TRUE(bitEqual(reference::matmul(a, b), kernels::gemm(a, b)));
}

TEST(Kernels, MatmulRoutesThroughBlockedKernel)
{
    Rng rng(104);
    Tensor a = randn({19, 33}, rng);
    Tensor b = randn({33, 21}, rng);
    EXPECT_TRUE(
        bitEqual(reference::matmul(a, b), linalg::matmul(a, b)));
}

TEST(Kernels, GemmThreadCountInvariant)
{
    Rng rng(105);
    // Big enough to clear the parallel threshold.
    Tensor a = randn({96, 96}, rng);
    Tensor b = randn({96, 96}, rng);
    kernels::configureThreads(1);
    Tensor serial = kernels::gemm(a, b);
    kernels::configureThreads(4);
    Tensor threaded = kernels::gemm(a, b);
    kernels::configureThreads(1);
    EXPECT_TRUE(bitEqual(serial, threaded));
}

TEST(Kernels, ConfigureThreadsMapsWidthsLikeSeThreads)
{
    // configureThreads takes SE_THREADS's convention: negative => one
    // worker per core, 0 => one worker.
    const int before = kernels::pool().threadCount();
    const unsigned hc = std::thread::hardware_concurrency();
    kernels::configureThreads(-1);
    EXPECT_EQ(kernels::pool().threadCount(), hc > 0 ? (int)hc : 1);
    kernels::configureThreads(0);
    EXPECT_EQ(kernels::pool().threadCount(), 1);
    kernels::configureThreads(3);
    EXPECT_EQ(kernels::pool().threadCount(), 3);
    kernels::configureThreads(before);
}

// ------------------------------------------------------------- Conv2d

struct ConvCfg
{
    int64_t c, m, k, stride, pad, dil, groups, h, w;
};

std::vector<ConvCfg>
convSweep()
{
    // stride x pad x dil x groups x kernel over non-square inputs,
    // skipping geometrically invalid combinations.
    std::vector<ConvCfg> out;
    const int64_t c = 6, m = 12;
    for (int64_t k : {1, 3, 7})
        for (int64_t stride : {1, 2})
            for (int64_t pad : {0, 1, 3})
                for (int64_t dil : {1, 2})
                    for (int64_t groups : {(int64_t)1, c}) {
                        const int64_t h = 11, w = 9;
                        const int64_t kext = dil * (k - 1) + 1;
                        if (h + 2 * pad < kext || w + 2 * pad < kext)
                            continue;
                        out.push_back(
                            {c, m, k, stride, pad, dil, groups, h, w});
                    }
    return out;
}

/**
 * The six distinct conv layers of VGG19-sim (baseWidth 24, 3x8x8
 * input): 3x3/pad-1 convs at 8x8, 4x4 and 2x2 outputs. The 2x2 stage
 * is the n = 4 GEMM that lives entirely in the SIMD 4-column stage.
 */
std::vector<ConvCfg>
vgg19SimConvs()
{
    std::vector<ConvCfg> out;
    for (const auto &[c, m, hw] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {3, 24, 8}, {24, 24, 8}, {24, 48, 4},
             {48, 48, 4}, {48, 96, 2}, {96, 96, 2}})
        out.push_back({c, m, 3, 1, 1, 1, 1, hw, hw});
    return out;
}

TEST(Kernels, ConvForwardSweepFastVsNaive)
{
    // The geometry sweep at batch 2, then VGG19-sim's layers at the
    // served batch of 16 — each lowered under every ISA variant.
    std::vector<std::pair<ConvCfg, int64_t>> cases;
    for (const ConvCfg &cfg : convSweep())
        cases.push_back({cfg, 2});
    for (const ConvCfg &cfg : vgg19SimConvs())
        cases.push_back({cfg, 16});
    int checked = 0;
    for (const auto &[cfg, batch] : cases) {
        Rng rng(200 + checked);
        nn::Conv2d conv(cfg.c, cfg.m, cfg.k, cfg.stride, cfg.pad,
                        cfg.groups, rng, /*bias=*/true, cfg.dil);
        Tensor x = randn({batch, cfg.c, cfg.h, cfg.w}, rng);

        const Tensor y_naive = reference::conv2dForward(conv, x);
        for (kernels::KernelIsa isa : kernels::supportedIsas()) {
            ScopedIsa forced(isa);
            // Exactness, not a tolerance: it is what keeps the golden
            // benches byte-stable.
            EXPECT_TRUE(bitEqual(y_naive, conv.forward(x, false)))
                << kernels::isaName(isa) << " c=" << cfg.c
                << " m=" << cfg.m << " k=" << cfg.k
                << " stride=" << cfg.stride << " pad=" << cfg.pad
                << " dil=" << cfg.dil << " groups=" << cfg.groups
                << " hw=" << cfg.h << "x" << cfg.w
                << " batch=" << batch;
        }
        ++checked;
    }
    EXPECT_GT(checked, 30);  // the sweep really swept
}

TEST(Kernels, ConvForwardThreadCountInvariant)
{
    Rng rng(42);
    nn::Conv2d conv(16, 32, 3, 1, 1, 1, rng);
    Tensor x = randn({2, 16, 24, 24}, rng);
    kernels::configureThreads(1);
    Tensor serial = conv.forward(x, false);
    kernels::configureThreads(4);
    Tensor threaded = conv.forward(x, false);
    kernels::configureThreads(1);
    EXPECT_TRUE(bitEqual(serial, threaded));
}

TEST(Kernels, ScratchArenaGrowOnlyAndRelease)
{
    kernels::ScratchArena arena;
    EXPECT_EQ(arena.floatsReserved(), 0u);
    float *p = arena.colBuffer(100);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.floatsReserved(), 100u);
    // Smaller requests reuse the existing block.
    EXPECT_EQ(arena.colBuffer(10), p);
    const size_t high_water = arena.floatsReserved();
    arena.transposeBuffer(50);
    EXPECT_GE(arena.floatsReserved(), high_water + 50);
    arena.release();
    EXPECT_EQ(arena.floatsReserved(), 0u);
}

TEST(Kernels, ConvScratchArenaReuseIsStateless)
{
    // Repeated calls reuse the arena; a smaller input after a larger
    // one must not read stale bytes beyond its extent.
    Rng rng(43);
    nn::Conv2d conv(4, 8, 3, 1, 1, 1, rng);
    Tensor big = randn({1, 4, 20, 20}, rng);
    Tensor small = randn({1, 4, 7, 5}, rng);

    Tensor first_small = conv.forward(small, false);
    conv.forward(big, false);
    Tensor again_small = conv.forward(small, false);
    EXPECT_TRUE(bitEqual(first_small, again_small));
}

// ------------------------------------------------------------- Linear

TEST(Kernels, LinearForwardBackwardBitExact)
{
    // Batch sizes on both sides of the transpose heuristic.
    for (int64_t batch : {(int64_t)1, (int64_t)2, (int64_t)16}) {
        Rng rng(500 + (int)batch), rng_x(77);
        nn::Linear fast(37, 19, rng);
        Tensor x = randn({batch, 37}, rng_x);

        const Tensor y_naive = reference::linearForward(fast, x);
        const Tensor y_fast = fast.forward(x, true);
        const Tensor gy = randn(y_naive.shape(), rng_x);
        Tensor grad_w({19, 37}), grad_b({19});
        const Tensor gx_naive =
            reference::linearBackward(fast, x, gy, grad_w, &grad_b);
        const Tensor gx_fast = fast.backward(gy);
        EXPECT_TRUE(bitEqual(y_naive, y_fast)) << "batch " << batch;
        EXPECT_TRUE(bitEqual(gx_naive, gx_fast)) << "batch " << batch;
        const auto pf = fast.params();
        ASSERT_EQ(pf.size(), 2u);
        EXPECT_TRUE(bitEqual(grad_w, *pf[0].grad)) << "batch " << batch;
        EXPECT_TRUE(bitEqual(grad_b, *pf[1].grad)) << "batch " << batch;
    }
}

// ------------------------------------------- whole-model congruence

TEST(Kernels, SimModelForwardIdenticalAcrossIsas)
{
    // End-to-end canary: a full reduced-scale CNN (conv + bn + pool +
    // fc) must produce byte-identical logits under every ISA.
    models::SimConfig cfg;
    cfg.baseWidth = 8;
    cfg.inHeight = cfg.inWidth = 10;
    cfg.seed = 5;

    Rng rng(55);
    Tensor x =
        randn({2, cfg.inChannels, cfg.inHeight, cfg.inWidth}, rng);

    Tensor ref;
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        auto net = models::buildSim(models::ModelId::VGG19, cfg);
        Tensor y = net->forward(x, false);
        if (ref.empty())
            ref = y;  // scalar, the first entry
        EXPECT_TRUE(bitEqual(ref, y)) << kernels::isaName(isa);
    }
}

// ------------------------------------------------------ Ce-code GEMM

/** Random Ce in Omega_P (zero rows included) plus its packed form. */
Tensor
randomCe(Rng &rng, int64_t rows, int64_t cols,
         const quant::Pow2Alphabet &a)
{
    Tensor ce({rows, cols});
    for (int64_t i = 0; i < rows; ++i) {
        if (rng.chance(0.3))
            continue;  // vector-sparse row
        for (int64_t j = 0; j < cols; ++j) {
            if (rng.chance(0.2))
                continue;
            const int exp = (int)rng.integer(a.expMin(), a.expMax);
            const float mag = std::ldexp(1.0f, exp);
            ce.at(i, j) = rng.chance(0.5) ? mag : -mag;
        }
    }
    return ce;
}

TEST(CeGemm, BitIdenticalToDenseGemmOnDecodedCodes)
{
    // gemmCeB must reproduce sgemm(decode(Ce), B) — and hence the
    // dense rebuild path — to the last bit, across panel boundaries
    // (rows > the internal panel size), odd code counts and zero
    // rows.
    Rng rng(31);
    for (const auto &[rows, cols, n] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {1, 1, 1}, {3, 3, 4}, {48, 3, 3}, {130, 5, 7},
             {300, 9, 9}, {257, 4, 6}}) {
        quant::Pow2Alphabet a;
        a.expMax = (int)rng.integer(-4, 4);
        a.numLevels = (int)rng.integer(1, 7);
        Tensor ce = randomCe(rng, rows, cols, a);
        Tensor basis = randn({cols, n}, rng);
        const auto packed = core::packCe(ce, a);

        Tensor want({rows, n});
        kernels::sgemm(ce.data(), basis.data(), want.data(), rows,
                       cols, n, false);
        Tensor got({rows, n});
        kernels::gemmCeB(packed.rowMask.data(),
                         packed.nibbles.data(), rows, cols,
                         basis.data(), n, a, got.data());
        EXPECT_EQ(std::memcmp(want.data(), got.data(),
                              (size_t)want.size() * sizeof(float)),
                  0)
            << rows << "x" << cols << "x" << n;

        // The Tensor-level dense path (reconstruct ==
        // linalg::matmul) agrees too, and so does the legacy loop.
        core::SeMatrix m;
        m.ce = ce;
        m.basis = basis;
        m.alphabet = a;
        EXPECT_TRUE(bitEqual(m.reconstruct(), got));
        EXPECT_TRUE(bitEqual(reference::matmul(ce, basis), got));
    }
}

TEST(CeGemm, FullySparseAndFullyDenseEdges)
{
    Rng rng(32);
    quant::Pow2Alphabet a;
    a.expMax = 2;  // covers the 0.5 / -2.0 codes below
    a.numLevels = 7;
    Tensor basis = randn({3, 5}, rng);

    Tensor zero({10, 3});  // all rows zero: empty nibble stream
    auto pz = core::packCe(zero, a);
    EXPECT_EQ(pz.nonZeroRows, 0);
    Tensor out({10, 5}, 1.0f);
    kernels::gemmCeB(pz.rowMask.data(), pz.nibbles.data(), 10, 3,
                     basis.data(), 5, a, out.data());
    for (int64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 0.0f);

    Tensor dense({10, 3});  // no zero anywhere
    for (int64_t i = 0; i < dense.size(); ++i)
        dense[i] = (i % 2) ? 0.5f : -2.0f;
    auto pd = core::packCe(dense, a);
    EXPECT_EQ(pd.nonZeroRows, 10);
    Tensor want({10, 5});
    kernels::sgemm(dense.data(), basis.data(), want.data(), 10, 3, 5,
                   false);
    Tensor got({10, 5});
    kernels::gemmCeB(pd.rowMask.data(), pd.nibbles.data(), 10, 3,
                     basis.data(), 5, a, got.data());
    EXPECT_EQ(std::memcmp(want.data(), got.data(),
                          (size_t)want.size() * sizeof(float)),
              0);
}

// ------------------------------------------------------ ISA dispatch

TEST(Dispatch, SupportedIsasStartWithScalarAndMatchActive)
{
    const auto isas = kernels::supportedIsas();
    ASSERT_FALSE(isas.empty());
    EXPECT_EQ(isas.front(), kernels::KernelIsa::Scalar);
    EXPECT_TRUE(kernels::isaSupported(kernels::activeIsa()));
    EXPECT_TRUE(kernels::isaSupported(kernels::detectBestIsa()));
}

TEST(Dispatch, ParseKernelIsaStrict)
{
    EXPECT_EQ(kernels::parseKernelIsa("auto"),
              kernels::detectBestIsa());
    EXPECT_EQ(kernels::parseKernelIsa(""), kernels::detectBestIsa());
    EXPECT_EQ(kernels::parseKernelIsa("scalar"),
              kernels::KernelIsa::Scalar);
    EXPECT_THROW(kernels::parseKernelIsa("avx512"),
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("fast"),
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("AVX2"),
                 std::invalid_argument);
    EXPECT_THROW(kernels::parseKernelIsa("sse2"),
                 std::invalid_argument);
}

TEST(Dispatch, ForcedSelectionSticks)
{
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        EXPECT_EQ(kernels::activeIsa(), isa);
    }
}

/**
 * Random matrix with ~25% exact zeros, a few negative zeros and — when
 * asked — a NaN planted in a row the other operand zeros out, so the
 * sweep exercises the zero-skip semantics (signed-zero preservation,
 * no 0*NaN) every variant must share with the scalar kernel.
 */
Tensor
sparseRandn(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor t = randn({rows, cols}, rng);
    for (int64_t i = 0; i < t.size(); ++i) {
        if (rng.chance(0.2))
            t[i] = 0.0f;
        else if (rng.chance(0.05))
            t[i] = -0.0f;
    }
    return t;
}

TEST(Dispatch, SgemmEveryIsaBitIdenticalToScalar)
{
    Rng rng(201);
    // m x k x n sweep: unit dims, empty inner dim, tile-aligned,
    // remainder tails for the 8- and 16-wide SIMD stages.
    const std::vector<std::vector<int64_t>> shapes{
        {1, 1, 1},  {1, 17, 1},  {9, 1, 13},   {5, 0, 7},
        {17, 23, 9}, {32, 16, 24}, {33, 15, 17}, {96, 31, 40},
    };
    for (const auto &s : shapes) {
        const int64_t m = s[0], k = s[1], n = s[2];
        Tensor a = sparseRandn(rng, m, k);
        Tensor b = sparseRandn(rng, k, n);
        for (bool accumulate : {false, true}) {
            Tensor seed = randn({m, n}, rng);
            Tensor want = seed;
            {
                ScopedIsa isa(kernels::KernelIsa::Scalar);
                kernels::sgemm(a.data(), b.data(), want.data(), m, k,
                               n, accumulate);
            }
            for (kernels::KernelIsa isa : kernels::supportedIsas()) {
                Tensor got = seed;
                ScopedIsa forced(isa);
                kernels::sgemm(a.data(), b.data(), got.data(), m, k,
                               n, accumulate);
                EXPECT_TRUE(bitEqual(want, got))
                    << kernels::isaName(isa) << " " << m << "x" << k
                    << "x" << n << " acc=" << accumulate;
            }
        }
    }
}

TEST(Dispatch, SgemmSkipsZeroTimesNaN)
{
    // A zero entry of A must SKIP the multiply, not fold 0 * NaN into
    // the chain — the scalar contract every variant inherits.
    Tensor a({2, 2});
    a.at(0, 0) = 1.0f;  // row 0 uses only B row 0
    a.at(1, 1) = 2.0f;  // row 1 uses only B row 1
    Tensor b({2, 3});
    b.at(0, 0) = 3.0f;
    b.at(1, 1) = std::nanf("");
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        ScopedIsa forced(isa);
        Tensor c({2, 3});
        kernels::sgemm(a.data(), b.data(), c.data(), 2, 2, 3, false);
        EXPECT_EQ(c.at(0, 0), 3.0f) << kernels::isaName(isa);
        EXPECT_FALSE(std::isnan(c.at(0, 1))) << kernels::isaName(isa);
        EXPECT_TRUE(std::isnan(c.at(1, 1))) << kernels::isaName(isa);
    }
}

TEST(Dispatch, GemmCeBEveryIsaBitIdenticalToScalarAndPanelDecode)
{
    Rng rng(203);
    for (const auto &[rows, cols, n] :
         std::vector<std::tuple<int64_t, int64_t, int64_t>>{
             {1, 1, 1}, {3, 3, 4}, {48, 3, 3}, {130, 5, 7},
             {300, 9, 9}, {257, 4, 6}}) {
        quant::Pow2Alphabet a;
        a.expMax = (int)rng.integer(-4, 4);
        a.numLevels = (int)rng.integer(1, 7);
        Tensor ce = randomCe(rng, rows, cols, a);
        Tensor basis = randn({cols, n}, rng);
        const auto packed = core::packCe(ce, a);
        kernels::ScratchArena arena;

        Tensor want({rows, n});
        {
            ScopedIsa isa(kernels::KernelIsa::Scalar);
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), rows, cols,
                             basis.data(), n, a, want.data());
        }
        // The staged decode-then-sgemm baseline agrees with the fused
        // kernel...
        Tensor staged({rows, n});
        reference::gemmCeBPanelDecode(packed.rowMask.data(),
                                      packed.nibbles.data(), rows,
                                      cols, basis.data(), n, a,
                                      staged.data(), arena);
        EXPECT_TRUE(bitEqual(want, staged))
            << rows << "x" << cols << "x" << n;
        // ...and so does every SIMD variant of the fused kernel.
        for (kernels::KernelIsa isa : kernels::supportedIsas()) {
            Tensor got({rows, n});
            ScopedIsa forced(isa);
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), rows, cols,
                             basis.data(), n, a, got.data());
            EXPECT_TRUE(bitEqual(want, got))
                << kernels::isaName(isa) << " " << rows << "x" << cols
                << "x" << n;
        }
    }
}

/**
 * gemmRowBiasD through one ISA's panel, the columns cut into 5-wide
 * panels fanned over the kernel pool: panels then start at j0 that
 * are not multiples of the 8-column tile, which the public entry
 * (tile-aligned splits) never exercises.
 */
void
rowBiasDOddPanels(kernels::KernelIsa isa, const Tensor &a,
                  const Tensor &b, const float *bias, Tensor &c)
{
    const int64_t m = c.dim(0), k = a.dim(1), n = c.dim(1);
    const auto panel = kernels::opsFor(isa).gemmRowBiasDPanel;
    constexpr int64_t kW = 5;
    kernels::parallelFor((n + kW - 1) / kW, [&](int64_t pi) {
        panel(a.data(), b.data(), bias, c.data(), m, k, n, pi * kW,
              std::min(n, (pi + 1) * kW));
    });
}

/**
 * Make the double chain's order visible in its float result. Rounded
 * to float, a double sum rarely shows how its terms were ordered; here
 * columns q and q+1 of A are made equal and rows q and q+1 of B carry
 * +-2^60, so p = q adds a term that swallows the running sum (bias
 * included) and p = q+1 cancels it exactly. An ascending chain then
 * returns the sum of the terms after q+1 alone; any other order or a
 * late bias returns something else.
 */
void
plantCancellation(Tensor &a, Tensor &b, Rng &rng)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    if (k < 2)
        return;
    const int64_t q = (k - 2) / 2;
    for (int64_t i = 0; i < m; ++i)
        a.at(i, q + 1) = a.at(i, q);
    for (int64_t j = 0; j < n; ++j) {
        const float big = std::ldexp(rng.chance(0.5) ? 1.0f : -1.0f, 60);
        b.at(q, j) = big;
        b.at(q + 1, j) = -big;
    }
}

/**
 * Every ISA's gemmRowBiasD against the scalar panel: the whole column
 * range in one panel, odd panels over the pool, and the public entry.
 */
void
expectRowBiasDMatchesScalar(const Tensor &a, const Tensor &b,
                            const float *bias, const std::string &tag)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor want({m, n});
    kernels::opsFor(kernels::KernelIsa::Scalar)
        .gemmRowBiasDPanel(a.data(), b.data(), bias, want.data(), m, k,
                           n, 0, n);
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        Tensor whole({m, n}), odd({m, n}), entry({m, n});
        kernels::opsFor(isa).gemmRowBiasDPanel(
            a.data(), b.data(), bias, whole.data(), m, k, n, 0, n);
        rowBiasDOddPanels(isa, a, b, bias, odd);
        {
            ScopedIsa forced(isa);
            kernels::gemmRowBiasD(a.data(), b.data(), bias,
                                  entry.data(), m, k, n);
        }
        EXPECT_TRUE(bitEqual(want, whole)) << kernels::isaName(isa) << tag;
        EXPECT_TRUE(bitEqual(want, odd)) << kernels::isaName(isa) << tag;
        EXPECT_TRUE(bitEqual(want, entry)) << kernels::isaName(isa) << tag;
    }
}

TEST(Dispatch, GemmRowBiasDEveryIsaBitIdenticalToScalar)
{
    if (kernels::isaSupported(kernels::KernelIsa::Avx2)) {
        EXPECT_NE(
            kernels::opsFor(kernels::KernelIsa::Avx2).gemmRowBiasDPanel,
            kernels::opsFor(kernels::KernelIsa::Scalar).gemmRowBiasDPanel);
    }
    Rng rng(206);
    kernels::configureThreads(4);
    for (int64_t m : {1, 2, 3, 4, 5, 7, 96})
        for (int64_t k : {0, 1, 27, 864})
            for (int64_t n : {1, 3, 4, 5, 7, 8, 9, 12, 16, 17, 64})
                for (bool cancel : {false, true}) {
                    Tensor a = randn({m, k}, rng);
                    Tensor b = randn({k, n}, rng);
                    Tensor bias = randn({m}, rng);
                    if (cancel)
                        plantCancellation(a, b, rng);
                    std::ostringstream tag;
                    tag << " " << m << "x" << k << "x" << n
                        << " cancel=" << cancel;
                    expectRowBiasDMatchesScalar(a, b, nullptr,
                                                tag.str() + " no bias");
                    expectRowBiasDMatchesScalar(a, b, bias.data(),
                                                tag.str() + " bias");
                }
    kernels::configureThreads(1);
}

TEST(Dispatch, GemmRowBiasDNonFiniteAgreesAcrossIsas)
{
    // Infinities and NaNs planted in A, B and the bias. Every variant
    // must agree with scalar on which outputs are NaN and, elsewhere,
    // on every byte (so on the sign of each infinity). NaN payloads
    // are not part of the contract and are not compared.
    Rng rng(207);
    const int64_t m = 13, k = 31, n = 21;
    Tensor a = randn({m, k}, rng);
    Tensor b = randn({k, n}, rng);
    Tensor bias = randn({m}, rng);
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {inf, -inf, std::nanf("")};
    for (int s = 0; s < 12; ++s) {
        const float v = specials[s % 3];
        a[rng.integer(0, a.size() - 1)] = v;
        b[rng.integer(0, b.size() - 1)] = v;
    }
    bias[2] = inf;
    bias[5] = -inf;
    bias[7] = std::nanf("");
    Tensor want({m, n});
    kernels::opsFor(kernels::KernelIsa::Scalar)
        .gemmRowBiasDPanel(a.data(), b.data(), bias.data(), want.data(),
                           m, k, n, 0, n);
    int nans = 0, infs = 0;
    for (int64_t i = 0; i < want.size(); ++i) {
        nans += std::isnan(want[i]);
        infs += std::isinf(want[i]);
    }
    ASSERT_GT(nans, 0);
    ASSERT_GT(infs, 0);
    for (kernels::KernelIsa isa : kernels::supportedIsas()) {
        Tensor got({m, n});
        kernels::opsFor(isa).gemmRowBiasDPanel(
            a.data(), b.data(), bias.data(), got.data(), m, k, n, 0, n);
        for (int64_t i = 0; i < want.size(); ++i) {
            if (std::isnan(want[i])) {
                EXPECT_TRUE(std::isnan(got[i]))
                    << kernels::isaName(isa) << " element " << i;
                continue;
            }
            EXPECT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
                << kernels::isaName(isa) << " element " << i << ": "
                << want[i] << " vs " << got[i];
        }
    }
}

TEST(Dispatch, SerialScopeKeepsFusedGemmOffThePool)
{
    // A fused Ce GEMM big enough to clear the parallel threshold
    // (m * r * n >= 2^19 multiplies) must stay inline when the caller
    // holds a SerialScope — the ServeEngine batch path runs exactly
    // this way from pool workers, where re-entering the pool would
    // deadlock it.
    Rng rng(204);
    quant::Pow2Alphabet a;
    a.expMax = 0;
    a.numLevels = 7;
    const int64_t m = 320, r = 8, n = 256;
    Tensor ce = randomCe(rng, m, r, a);
    Tensor basis = randn({r, n}, rng);
    const auto packed = core::packCe(ce, a);

    Tensor want({m, n});
    kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(), m,
                     r, basis.data(), n, a, want.data());

    const uint64_t before = kernels::pool().tasksExecuted();
    Tensor got({m, n});
    {
        kernels::SerialScope serial;
        kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(),
                         m, r, basis.data(), n, a, got.data());
    }
    EXPECT_EQ(kernels::pool().tasksExecuted(), before);
    EXPECT_TRUE(bitEqual(want, got));
}

TEST(Dispatch, NestedFusedGemmFromPoolWorkerStaysInline)
{
    // The same fused GEMM issued FROM a pool worker (no SerialScope)
    // must run inline via the worker-thread guard: only the one
    // submitted task may hit the pool, never nested panel tasks.
    Rng rng(205);
    quant::Pow2Alphabet a;
    a.expMax = 0;
    a.numLevels = 7;
    const int64_t m = 320, r = 8, n = 256;
    Tensor ce = randomCe(rng, m, r, a);
    Tensor basis = randn({r, n}, rng);
    const auto packed = core::packCe(ce, a);

    Tensor want({m, n});
    kernels::gemmCeB(packed.rowMask.data(), packed.nibbles.data(), m, r,
                     basis.data(), n, a, want.data());

    const uint64_t before = kernels::pool().tasksExecuted();
    Tensor got({m, n});
    kernels::pool()
        .submit([&] {
            kernels::gemmCeB(packed.rowMask.data(),
                             packed.nibbles.data(), m, r,
                             basis.data(), n, a, got.data());
        })
        .get();
    EXPECT_EQ(kernels::pool().tasksExecuted(), before + 1);
    EXPECT_TRUE(bitEqual(want, got));
}

} // namespace
