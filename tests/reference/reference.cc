#include "reference/reference.hh"

#include <algorithm>
#include <vector>

#include "base/logging.hh"
#include "kernels/gemm.hh"
#include "linalg/linalg.hh"

namespace se {
namespace reference {

namespace {

/**
 * Rows decoded per panel by gemmCeBPanelDecode. Big enough that the
 * sgemm call amortizes, small enough that a panel of typical Ce ranks
 * (3..9 columns) stays resident in L1 next to the basis tile.
 */
constexpr int64_t kPanelRows = 128;

inline float
decodeNibble(uint8_t nib, int exp_min)
{
    const int code = nib & 0x7;
    if (code == 0) {
        // Nibble 0x8 (sign with a zero exponent code) never leaves
        // packCe.
        SE_ASSERT(nib == 0, "invalid packed Ce nibble");
        return 0.0f;
    }
    return quant::pow2CodeValue(exp_min, code, (nib & 0x8) != 0);
}

} // namespace

Tensor
conv2dForward(const nn::Conv2d &conv, const Tensor &x)
{
    const Tensor &weight = conv.weightTensor();
    const Tensor &bias_ = conv.biasTensor();
    const bool hasBias = !bias_.empty();
    const int64_t inCh = conv.inChannels(), outCh = conv.outChannels();
    const int64_t kern = conv.kernelSize(), strd = conv.strideLen();
    const int64_t pad_ = conv.padLen(), grps = conv.groupCount();
    const int64_t dil = conv.dilationLen();

    const int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
    const int64_t kext = dil * (kern - 1) + 1;
    const int64_t oh = (h + 2 * pad_ - kext) / strd + 1;
    const int64_t ow = (w + 2 * pad_ - kext) / strd + 1;
    const int64_t cpg = inCh / grps;
    const int64_t mpg = outCh / grps;

    Tensor y({n, outCh, oh, ow});
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < grps; ++g) {
            for (int64_t mo = 0; mo < mpg; ++mo) {
                const int64_t m = g * mpg + mo;
                for (int64_t e = 0; e < oh; ++e) {
                    for (int64_t f = 0; f < ow; ++f) {
                        double acc = hasBias ? bias_[m] : 0.0;
                        for (int64_t ci = 0; ci < cpg; ++ci) {
                            const int64_t c = g * cpg + ci;
                            for (int64_t kr = 0; kr < kern; ++kr) {
                                const int64_t ih =
                                    e * strd + kr * dil - pad_;
                                if (ih < 0 || ih >= h)
                                    continue;
                                for (int64_t ks = 0; ks < kern; ++ks) {
                                    const int64_t iw =
                                        f * strd + ks * dil - pad_;
                                    if (iw < 0 || iw >= w)
                                        continue;
                                    acc += (double)weight.at(m, ci, kr,
                                                             ks) *
                                           x.at(b, c, ih, iw);
                                }
                            }
                        }
                        y.at(b, m, e, f) = (float)acc;
                    }
                }
            }
        }
    }
    return y;
}

Tensor
linearForward(const nn::Linear &fc, const Tensor &x)
{
    const Tensor &weight = fc.weightTensor();
    const Tensor &bias_ = fc.biasTensor();
    const bool hasBias = !bias_.empty();
    const int64_t inF = fc.inFeatures(), outF = fc.outFeatures();

    const int64_t n = x.dim(0);
    Tensor y({n, outF});
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t o = 0; o < outF; ++o) {
            double acc = hasBias ? bias_[o] : 0.0;
            for (int64_t i = 0; i < inF; ++i)
                acc += (double)weight.at(o, i) * x.at(b, i);
            y.at(b, o) = (float)acc;
        }
    }
    return y;
}

Tensor
linearBackward(const nn::Linear &fc, const Tensor &x, const Tensor &gy,
               Tensor &gradW, Tensor *gradB)
{
    const Tensor &weight = fc.weightTensor();
    const int64_t inF = fc.inFeatures(), outF = fc.outFeatures();

    const int64_t n = x.dim(0);
    Tensor gx(x.shape());
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t o = 0; o < outF; ++o) {
            const float gv = gy.at(b, o);
            if (gv == 0.0f)
                continue;
            if (gradB)
                (*gradB)[o] += gv;
            for (int64_t i = 0; i < inF; ++i) {
                gradW.at(o, i) += gv * x.at(b, i);
                gx.at(b, i) += gv * weight.at(o, i);
            }
        }
    }
    return gx;
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    const int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p) {
            const float av = a.at(i, p);
            if (av == 0.0f)
                continue;
            for (int64_t j = 0; j < n; ++j)
                c.at(i, j) += av * b.at(p, j);
        }
    return c;
}

Tensor
fitCoefficientsMasked(const Tensor &w, const Tensor &b, const Tensor &mask,
                      double ridge)
{
    const int64_t m = w.dim(0), r = b.dim(0), n = b.dim(1);
    Tensor ce({m, r});
    for (int64_t i = 0; i < m; ++i) {
        std::vector<int64_t> idx;
        for (int64_t j = 0; j < r; ++j)
            if (mask.at(i, j) != 0.0f)
                idx.push_back(j);
        if (idx.empty())
            continue;
        const int64_t q = (int64_t)idx.size();
        Tensor gram({q, q});
        Tensor rhs({q, (int64_t)1});
        for (int64_t u = 0; u < q; ++u) {
            for (int64_t v = 0; v < q; ++v) {
                double s = 0.0;
                for (int64_t t = 0; t < n; ++t)
                    s += (double)b.at(idx[(size_t)u], t) *
                         b.at(idx[(size_t)v], t);
                gram.at(u, v) = (float)s;
            }
            gram.at(u, u) += (float)ridge + 1e-7f;
            double s = 0.0;
            for (int64_t t = 0; t < n; ++t)
                s += (double)b.at(idx[(size_t)u], t) * w.at(i, t);
            rhs.at(u, 0) = (float)s;
        }
        Tensor sol = linalg::choleskySolve(gram, rhs);
        for (int64_t u = 0; u < q; ++u)
            ce.at(i, idx[(size_t)u]) = sol.at(u, 0);
    }
    return ce;
}

void
gemmCeBPanelDecode(const uint8_t *row_mask, const uint8_t *nibbles,
                   int64_t m, int64_t r, const float *basis, int64_t n,
                   const quant::Pow2Alphabet &alpha, float *out,
                   kernels::ScratchArena &arena)
{
    if (m <= 0 || n <= 0)
        return;
    const int exp_min = alpha.expMin();
    int64_t nz_seen = 0;  // non-zero rows before the current row
    for (int64_t row0 = 0; row0 < m; row0 += kPanelRows) {
        const int64_t pr = std::min(kPanelRows, m - row0);
        float *panel = arena.colBuffer(pr * r);
        for (int64_t i = 0; i < pr; ++i) {
            const int64_t row = row0 + i;
            float *dst = panel + i * r;
            if (!(row_mask[row >> 3] & (1u << (row & 7)))) {
                std::fill(dst, dst + r, 0.0f);
                continue;
            }
            const int64_t code0 = nz_seen * r;
            for (int64_t j = 0; j < r; ++j) {
                const int64_t k = code0 + j;
                uint8_t nib = nibbles[k >> 1];
                nib = (k & 1) ? (uint8_t)(nib >> 4)
                              : (uint8_t)(nib & 0xF);
                dst[j] = decodeNibble(nib, exp_min);
            }
            ++nz_seen;
        }
        // Panel rows are disjoint output rows: sgemm accumulates each
        // element over the full inner dimension in ascending order,
        // so the split is invisible in the results.
        kernels::sgemm(panel, basis, out + row0 * n, pr, r, n,
                       /*accumulate=*/false);
    }
}

} // namespace reference
} // namespace se
