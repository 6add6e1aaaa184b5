#include "kernels/gemm.hh"

#include <algorithm>

#include "kernels/dispatch.hh"
#include "kernels/kernels.hh"

namespace se {
namespace kernels {

namespace {

/** Register-tile width of the double-chain panels below. */
constexpr int64_t kNr = 8;

/** gemmColBiasD over [j0, j1): gemmRowBiasD with per-column bias. */
void
gemmColBiasDPanel(const float *__restrict a, const float *__restrict b,
                  const float *col_bias, float *__restrict c, int64_t m,
                  int64_t k, int64_t n, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kNr <= j1; jt += kNr) {
        double bias[kNr];
        for (int jj = 0; jj < kNr; ++jj)
            bias[jj] = col_bias ? (double)col_bias[jt + jj] : 0.0;
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            double acc0[kNr], acc1[kNr];
            for (int jj = 0; jj < kNr; ++jj) {
                acc0[jj] = bias[jj];
                acc1[jj] = bias[jj];
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const double av0 = a0[p];
                const double av1 = a1[p];
                for (int jj = 0; jj < kNr; ++jj) {
                    const double bv = bp[jj];
                    acc0[jj] += av0 * bv;
                    acc1[jj] += av1 * bv;
                }
            }
            float *c0 = c + i * n + jt;
            float *c1 = c0 + n;
            for (int jj = 0; jj < kNr; ++jj) {
                c0[jj] = (float)acc0[jj];
                c1[jj] = (float)acc1[jj];
            }
        }
        if (i < m) {
            const float *ai = a + i * k;
            double acc[kNr];
            for (int jj = 0; jj < kNr; ++jj)
                acc[jj] = bias[jj];
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const double av = ai[p];
                for (int jj = 0; jj < kNr; ++jj)
                    acc[jj] += av * (double)bp[jj];
            }
            float *ci = c + i * n + jt;
            for (int jj = 0; jj < kNr; ++jj)
                ci[jj] = (float)acc[jj];
        }
    }
    for (; jt < j1; ++jt) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc = col_bias ? (double)col_bias[jt] : 0.0;
            for (int64_t p = 0; p < k; ++p)
                acc += (double)ai[p] * (double)b[p * n + jt];
            c[i * n + jt] = (float)acc;
        }
    }
}

/** gemmABtColBiasD over the B-row range [j0, j1). */
void
gemmABtColBiasDPanel(const float *__restrict a,
                     const float *__restrict b, const float *col_bias,
                     float *__restrict c, int64_t m, int64_t k,
                     int64_t n, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kNr <= j1; jt += kNr) {
        const float *br[kNr];
        for (int jj = 0; jj < kNr; ++jj)
            br[jj] = b + (jt + jj) * k;
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc[kNr];
            for (int jj = 0; jj < kNr; ++jj)
                acc[jj] = col_bias ? (double)col_bias[jt + jj] : 0.0;
            for (int64_t p = 0; p < k; ++p) {
                const double av = ai[p];
                for (int jj = 0; jj < kNr; ++jj)
                    acc[jj] += (double)br[jj][p] * av;
            }
            float *ci = c + i * n + jt;
            for (int jj = 0; jj < kNr; ++jj)
                ci[jj] = (float)acc[jj];
        }
    }
    for (; jt < j1; ++jt) {
        const float *bj = b + jt * k;
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc = col_bias ? (double)col_bias[jt] : 0.0;
            for (int64_t p = 0; p < k; ++p)
                acc += (double)bj[p] * (double)ai[p];
            c[i * n + jt] = (float)acc;
        }
    }
}

} // namespace

void
sgemm(const float *a, const float *b, float *c, int64_t m, int64_t k,
      int64_t n, bool accumulate)
{
    // The float-chain panels are ISA-dispatched (dispatch.hh); every
    // variant reproduces the scalar rounding sequence byte for byte.
    const KernelOps &o = ops();
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        o.sgemmPanel(a, b, c, m, k, n, accumulate, j0, j1);
    });
}

void
gemmRowBiasD(const float *a, const float *b, const float *row_bias,
             float *c, int64_t m, int64_t k, int64_t n)
{
    const KernelOps &o = ops();
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        o.gemmRowBiasDPanel(a, b, row_bias, c, m, k, n, j0, j1);
    });
}

void
gemmABtColBiasD(const float *a, const float *b, const float *col_bias,
                float *c, int64_t m, int64_t k, int64_t n)
{
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        gemmABtColBiasDPanel(a, b, col_bias, c, m, k, n, j0, j1);
    });
}

void
gemmColBiasD(const float *a, const float *b, const float *col_bias,
             float *c, int64_t m, int64_t k, int64_t n)
{
    forEachColumnPanel(n, m * k * n, [&](int64_t j0, int64_t j1) {
        gemmColBiasDPanel(a, b, col_bias, c, m, k, n, j0, j1);
    });
}

void
transposeF(const float *src, int64_t rows, int64_t cols, float *dst)
{
    // Tile both dimensions so either stride stays cache-resident.
    constexpr int64_t kBlk = 32;
    for (int64_t i0 = 0; i0 < rows; i0 += kBlk)
        for (int64_t j0 = 0; j0 < cols; j0 += kBlk) {
            const int64_t i1 = std::min(rows, i0 + kBlk);
            const int64_t j1 = std::min(cols, j0 + kBlk);
            for (int64_t i = i0; i < i1; ++i)
                for (int64_t j = j0; j < j1; ++j)
                    dst[j * rows + i] = src[i * cols + j];
        }
}

Tensor
gemm(const Tensor &a, const Tensor &b)
{
    SE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "gemm needs 2-D inputs");
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    SE_ASSERT(b.dim(0) == k, "gemm inner dim mismatch: ", k, " vs ",
              b.dim(0));
    Tensor c({m, n});
    sgemm(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/false);
    return c;
}

} // namespace kernels
} // namespace se
