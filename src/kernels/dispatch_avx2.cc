/**
 * @file
 * AVX2 micro-kernel variants: 256-bit register tiles (16 columns as
 * two YMM accumulators, two A rows per pass — 4 live accumulator
 * registers plus broadcasts and B loads, sized for FMA-class cores).
 * The conv-forward double chain uses 4-row x 8-column tiles of double
 * accumulators (8 YMM): each k step widens one 8-float B strip to two
 * double vectors and multiplies it by each row's broadcast A value.
 *
 * This TU is compiled with -mavx2 and deliberately WITHOUT -mfma:
 * a fused multiply-add rounds once where the bit-identity contract
 * (the legacy loops' mul-round-add-round float chain) rounds twice,
 * so with the FMA ISA masked off the compiler cannot contract the
 * mul+add pairs below and every byte matches the scalar reference.
 * Lanes are distinct output elements accumulated in ascending-k
 * order, and the A-side zero-skip is kept per row.
 *
 * When the build lacks -mavx2 support (non-x86 target, old compiler),
 * avx2Ops() returns nullptr and dispatch falls back to scalar.
 */

#include "kernels/dispatch_variants.hh"

#ifdef __AVX2__

#include <immintrin.h>

#include <algorithm>

namespace se {
namespace kernels {
namespace detail {

namespace {

constexpr int64_t kTile = 16;  // columns per register tile (2 x YMM)
constexpr int64_t kHalf = 8;   // single-YMM stage

/** Scalar remainder columns [jt, j1) — the reference loop verbatim. */
inline void
sgemmTail(const float *a, const float *b, float *c, int64_t m,
          int64_t k, int64_t n, bool accumulate, int64_t jt, int64_t j1)
{
    for (; jt < j1; ++jt) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float acc = accumulate ? c[i * n + jt] : 0.0f;
            for (int64_t p = 0; p < k; ++p) {
                const float av = ai[p];
                if (av != 0.0f)
                    acc += av * b[p * n + jt];
            }
            c[i * n + jt] = acc;
        }
    }
}

void
sgemmPanelAvx2(const float *__restrict a, const float *__restrict b,
               float *__restrict c, int64_t m, int64_t k, int64_t n,
               bool accumulate, int64_t j0, int64_t j1)
{
    int64_t jt = j0;
    for (; jt + kTile <= j1; jt += kTile) {
        int64_t i = 0;
        for (; i + 2 <= m; i += 2) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            float *c0 = c + i * n + jt;
            float *c1 = c0 + n;
            __m256 acc00, acc01, acc10, acc11;
            if (accumulate) {
                acc00 = _mm256_loadu_ps(c0);
                acc01 = _mm256_loadu_ps(c0 + 8);
                acc10 = _mm256_loadu_ps(c1);
                acc11 = _mm256_loadu_ps(c1 + 8);
            } else {
                acc00 = acc01 = acc10 = acc11 = _mm256_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av0 = a0[p];
                const float av1 = a1[p];
                if (av0 == 0.0f && av1 == 0.0f)
                    continue;
                const __m256 b0 = _mm256_loadu_ps(bp);
                const __m256 b1 = _mm256_loadu_ps(bp + 8);
                if (av0 != 0.0f) {
                    const __m256 va = _mm256_set1_ps(av0);
                    acc00 = _mm256_add_ps(acc00,
                                          _mm256_mul_ps(va, b0));
                    acc01 = _mm256_add_ps(acc01,
                                          _mm256_mul_ps(va, b1));
                }
                if (av1 != 0.0f) {
                    const __m256 va = _mm256_set1_ps(av1);
                    acc10 = _mm256_add_ps(acc10,
                                          _mm256_mul_ps(va, b0));
                    acc11 = _mm256_add_ps(acc11,
                                          _mm256_mul_ps(va, b1));
                }
            }
            _mm256_storeu_ps(c0, acc00);
            _mm256_storeu_ps(c0 + 8, acc01);
            _mm256_storeu_ps(c1, acc10);
            _mm256_storeu_ps(c1 + 8, acc11);
        }
        if (i < m) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            __m256 acc0, acc1;
            if (accumulate) {
                acc0 = _mm256_loadu_ps(ci);
                acc1 = _mm256_loadu_ps(ci + 8);
            } else {
                acc0 = acc1 = _mm256_setzero_ps();
            }
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                const __m256 va = _mm256_set1_ps(av);
                acc0 = _mm256_add_ps(
                    acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
            }
            _mm256_storeu_ps(ci, acc0);
            _mm256_storeu_ps(ci + 8, acc1);
        }
    }
    for (; jt + kHalf <= j1; jt += kHalf) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            float *ci = c + i * n + jt;
            __m256 acc = accumulate ? _mm256_loadu_ps(ci)
                                    : _mm256_setzero_ps();
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const float av = ai[p];
                if (av == 0.0f)
                    continue;
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(av),
                                       _mm256_loadu_ps(bp)));
            }
            _mm256_storeu_ps(ci, acc);
        }
    }
    sgemmTail(a, b, c, m, k, n, accumulate, jt, j1);
}

inline uint8_t
nibbleAt(const uint8_t *nibbles, int64_t idx)
{
    const uint8_t byte = nibbles[idx >> 1];
    return (idx & 1) ? (uint8_t)(byte >> 4) : (uint8_t)(byte & 0xF);
}

void
gemmCePanelAvx2(const uint8_t *row_mask, const uint8_t *nibbles,
                int64_t m, int64_t r, const float *__restrict basis,
                int64_t n, const float *__restrict lut,
                float *__restrict out, int64_t j0, int64_t j1)
{
    int64_t nz_seen = 0;
    for (int64_t row = 0; row < m; ++row) {
        float *crow = out + row * n;
        if (!(row_mask[row >> 3] & (1u << (row & 7)))) {
            std::fill(crow + j0, crow + j1, 0.0f);
            continue;
        }
        const int64_t code0 = nz_seen * r;
        ++nz_seen;
        int64_t jt = j0;
        for (; jt + kTile <= j1; jt += kTile) {
            __m256 acc0 = _mm256_setzero_ps();
            __m256 acc1 = _mm256_setzero_ps();
            const float *bp = basis + jt;
            for (int64_t p = 0; p < r; ++p, bp += n) {
                const float av = lut[nibbleAt(nibbles, code0 + p)];
                if (av == 0.0f)
                    continue;
                const __m256 va = _mm256_set1_ps(av);
                acc0 = _mm256_add_ps(
                    acc0, _mm256_mul_ps(va, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(va, _mm256_loadu_ps(bp + 8)));
            }
            _mm256_storeu_ps(crow + jt, acc0);
            _mm256_storeu_ps(crow + jt + 8, acc1);
        }
        for (; jt + kHalf <= j1; jt += kHalf) {
            __m256 acc = _mm256_setzero_ps();
            const float *bp = basis + jt;
            for (int64_t p = 0; p < r; ++p, bp += n) {
                const float av = lut[nibbleAt(nibbles, code0 + p)];
                if (av == 0.0f)
                    continue;
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(_mm256_set1_ps(av),
                                       _mm256_loadu_ps(bp)));
            }
            _mm256_storeu_ps(crow + jt, acc);
        }
        for (; jt < j1; ++jt) {
            float acc = 0.0f;
            for (int64_t p = 0; p < r; ++p) {
                const float av = lut[nibbleAt(nibbles, code0 + p)];
                if (av != 0.0f)
                    acc += av * basis[p * n + jt];
            }
            crow[jt] = acc;
        }
    }
}

// ------------------------------------------- conv-forward double chain
//
// A float x float product is exact in double, so mul_pd rounds
// nothing and add_pd rounds exactly where the scalar `acc += a * b`
// does: every lane reproduces the scalar panel's bytes.

/** Row bias as the chain's double start value (zero when absent). */
inline __m256d
biasStart(const float *row_bias, int64_t i)
{
    return _mm256_set1_pd(row_bias ? (double)row_bias[i] : 0.0);
}

/** acc + av * bv as a separate multiply and add, never fused. */
inline __m256d
mulAdd(__m256d acc, __m256d av, __m256d bv)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
}

void
gemmRowBiasDPanelAvx2(const float *__restrict a,
                      const float *__restrict b, const float *row_bias,
                      float *__restrict c, int64_t m, int64_t k,
                      int64_t n, int64_t j0, int64_t j1)
{
    constexpr int64_t kRows = 4;  // A rows per tile
    int64_t jt = j0;
    // 4 rows x 8 columns: two YMM of doubles per row.
    for (; jt + kHalf <= j1; jt += kHalf) {
        int64_t i = 0;
        for (; i + kRows <= m; i += kRows) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            const float *a2 = a1 + k;
            const float *a3 = a2 + k;
            __m256d lo0 = biasStart(row_bias, i), hi0 = lo0;
            __m256d lo1 = biasStart(row_bias, i + 1), hi1 = lo1;
            __m256d lo2 = biasStart(row_bias, i + 2), hi2 = lo2;
            __m256d lo3 = biasStart(row_bias, i + 3), hi3 = lo3;
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const __m256d blo = _mm256_cvtps_pd(_mm_loadu_ps(bp));
                const __m256d bhi =
                    _mm256_cvtps_pd(_mm_loadu_ps(bp + 4));
                __m256d av = _mm256_set1_pd((double)a0[p]);
                lo0 = mulAdd(lo0, av, blo);
                hi0 = mulAdd(hi0, av, bhi);
                av = _mm256_set1_pd((double)a1[p]);
                lo1 = mulAdd(lo1, av, blo);
                hi1 = mulAdd(hi1, av, bhi);
                av = _mm256_set1_pd((double)a2[p]);
                lo2 = mulAdd(lo2, av, blo);
                hi2 = mulAdd(hi2, av, bhi);
                av = _mm256_set1_pd((double)a3[p]);
                lo3 = mulAdd(lo3, av, blo);
                hi3 = mulAdd(hi3, av, bhi);
            }
            float *c0 = c + i * n + jt;
            _mm_storeu_ps(c0, _mm256_cvtpd_ps(lo0));
            _mm_storeu_ps(c0 + 4, _mm256_cvtpd_ps(hi0));
            _mm_storeu_ps(c0 + n, _mm256_cvtpd_ps(lo1));
            _mm_storeu_ps(c0 + n + 4, _mm256_cvtpd_ps(hi1));
            _mm_storeu_ps(c0 + 2 * n, _mm256_cvtpd_ps(lo2));
            _mm_storeu_ps(c0 + 2 * n + 4, _mm256_cvtpd_ps(hi2));
            _mm_storeu_ps(c0 + 3 * n, _mm256_cvtpd_ps(lo3));
            _mm_storeu_ps(c0 + 3 * n + 4, _mm256_cvtpd_ps(hi3));
        }
        for (; i < m; ++i) {  // leftover rows: 1 x 8
            const float *ai = a + i * k;
            __m256d lo = biasStart(row_bias, i), hi = lo;
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const __m256d av = _mm256_set1_pd((double)ai[p]);
                lo = mulAdd(lo, av, _mm256_cvtps_pd(_mm_loadu_ps(bp)));
                hi = mulAdd(hi, av,
                            _mm256_cvtps_pd(_mm_loadu_ps(bp + 4)));
            }
            float *ci = c + i * n + jt;
            _mm_storeu_ps(ci, _mm256_cvtpd_ps(lo));
            _mm_storeu_ps(ci + 4, _mm256_cvtpd_ps(hi));
        }
    }
    // 4 leftover columns: one YMM per row. VGG-style late stages end
    // at a 2x2 output (n = 4), which lives entirely in this stage.
    for (; jt + 4 <= j1; jt += 4) {
        int64_t i = 0;
        for (; i + kRows <= m; i += kRows) {
            const float *a0 = a + i * k;
            const float *a1 = a0 + k;
            const float *a2 = a1 + k;
            const float *a3 = a2 + k;
            __m256d acc0 = biasStart(row_bias, i);
            __m256d acc1 = biasStart(row_bias, i + 1);
            __m256d acc2 = biasStart(row_bias, i + 2);
            __m256d acc3 = biasStart(row_bias, i + 3);
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n) {
                const __m256d bv = _mm256_cvtps_pd(_mm_loadu_ps(bp));
                acc0 = mulAdd(acc0, _mm256_set1_pd((double)a0[p]), bv);
                acc1 = mulAdd(acc1, _mm256_set1_pd((double)a1[p]), bv);
                acc2 = mulAdd(acc2, _mm256_set1_pd((double)a2[p]), bv);
                acc3 = mulAdd(acc3, _mm256_set1_pd((double)a3[p]), bv);
            }
            float *c0 = c + i * n + jt;
            _mm_storeu_ps(c0, _mm256_cvtpd_ps(acc0));
            _mm_storeu_ps(c0 + n, _mm256_cvtpd_ps(acc1));
            _mm_storeu_ps(c0 + 2 * n, _mm256_cvtpd_ps(acc2));
            _mm_storeu_ps(c0 + 3 * n, _mm256_cvtpd_ps(acc3));
        }
        for (; i < m; ++i) {
            const float *ai = a + i * k;
            __m256d acc = biasStart(row_bias, i);
            const float *bp = b + jt;
            for (int64_t p = 0; p < k; ++p, bp += n)
                acc = mulAdd(acc, _mm256_set1_pd((double)ai[p]),
                             _mm256_cvtps_pd(_mm_loadu_ps(bp)));
            _mm_storeu_ps(c + i * n + jt, _mm256_cvtpd_ps(acc));
        }
    }
    // Fewer than 4 columns: the scalar reference loop verbatim.
    for (; jt < j1; ++jt) {
        for (int64_t i = 0; i < m; ++i) {
            const float *ai = a + i * k;
            double acc = row_bias ? (double)row_bias[i] : 0.0;
            for (int64_t p = 0; p < k; ++p)
                acc += (double)ai[p] * (double)b[p * n + jt];
            c[i * n + jt] = (float)acc;
        }
    }
}

const KernelOps kAvx2Ops{sgemmPanelAvx2, gemmCePanelAvx2,
                         gemmRowBiasDPanelAvx2};

} // namespace

const KernelOps *
avx2Ops()
{
    return &kAvx2Ops;
}

} // namespace detail
} // namespace kernels
} // namespace se

#else  // !__AVX2__

namespace se {
namespace kernels {
namespace detail {

const KernelOps *
avx2Ops()
{
    return nullptr;
}

} // namespace detail
} // namespace kernels
} // namespace se

#endif
