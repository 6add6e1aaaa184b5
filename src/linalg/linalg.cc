#include "linalg/linalg.hh"

#include <cmath>

#include "kernels/gemm.hh"

namespace se {
namespace linalg {

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    SE_ASSERT(a.ndim() == 2 && b.ndim() == 2, "matmul needs 2-D inputs");
    SE_ASSERT(b.dim(0) == a.dim(1), "matmul inner dim mismatch: ",
              a.dim(1), " vs ", b.dim(0));
    // The blocked kernel reproduces the legacy loop's rounding
    // sequence (ascending-k float chain per element, zero rows of A
    // skipped) exactly; tests/reference/ keeps that loop as the oracle.
    return kernels::gemm(a, b);
}

Tensor
transpose(const Tensor &a)
{
    SE_ASSERT(a.ndim() == 2, "transpose needs a 2-D input");
    Tensor t({a.dim(1), a.dim(0)});
    for (int64_t i = 0; i < a.dim(0); ++i)
        for (int64_t j = 0; j < a.dim(1); ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

double
frobNorm(const Tensor &a)
{
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        s += (double)a[i] * a[i];
    return std::sqrt(s);
}

double
frobDiff(const Tensor &a, const Tensor &b)
{
    SE_ASSERT(a.size() == b.size(), "frobDiff size mismatch");
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i) {
        double d = (double)a[i] - b[i];
        s += d * d;
    }
    return std::sqrt(s);
}

Tensor
choleskySolve(Tensor a, Tensor b)
{
    SE_ASSERT(a.ndim() == 2 && a.dim(0) == a.dim(1),
              "choleskySolve needs a square A");
    const int64_t n = a.dim(0), m = b.dim(1);
    SE_ASSERT(b.dim(0) == n, "choleskySolve RHS row mismatch");

    // In-place lower-triangular Cholesky: A = L L^T.
    for (int64_t j = 0; j < n; ++j) {
        double d = a.at(j, j);
        for (int64_t k = 0; k < j; ++k)
            d -= (double)a.at(j, k) * a.at(j, k);
        SE_ASSERT(d > 0.0, "matrix not positive definite (d=", d, ")");
        const double ljj = std::sqrt(d);
        a.at(j, j) = (float)ljj;
        for (int64_t i = j + 1; i < n; ++i) {
            double s = a.at(i, j);
            for (int64_t k = 0; k < j; ++k)
                s -= (double)a.at(i, k) * a.at(j, k);
            a.at(i, j) = (float)(s / ljj);
        }
    }

    // Forward substitution L Y = B, then backward L^T X = Y, per column.
    Tensor x = b;
    for (int64_t c = 0; c < m; ++c) {
        for (int64_t i = 0; i < n; ++i) {
            double s = x.at(i, c);
            for (int64_t k = 0; k < i; ++k)
                s -= (double)a.at(i, k) * x.at(k, c);
            x.at(i, c) = (float)(s / a.at(i, i));
        }
        for (int64_t i = n - 1; i >= 0; --i) {
            double s = x.at(i, c);
            for (int64_t k = i + 1; k < n; ++k)
                s -= (double)a.at(k, i) * x.at(k, c);
            x.at(i, c) = (float)(s / a.at(i, i));
        }
    }
    return x;
}

namespace {

/**
 * Add a ridge scaled to the Gram matrix magnitude so rank-deficient
 * systems (fully-pruned coefficient columns, duplicated power-of-2
 * columns) stay numerically positive definite.
 */
void
addAdaptiveRidge(Tensor &gram, double ridge)
{
    float max_diag = 0.0f;
    for (int64_t i = 0; i < gram.dim(0); ++i)
        max_diag = std::max(max_diag, gram.at(i, i));
    // The 1e-5 * max_diag term dominates float32 round-off in the
    // Gram accumulation, keeping the factorization positive definite
    // even for rank-deficient (heavily pruned) coefficient matrices.
    const float eps = (float)(ridge + 1e-5 * (double)max_diag) + 1e-7f;
    for (int64_t i = 0; i < gram.dim(0); ++i)
        gram.at(i, i) += eps;
}

} // namespace

Tensor
fitBasis(const Tensor &w, const Tensor &ce, double ridge)
{
    // Normal equations: (Ce^T Ce + ridge I) B = Ce^T W.
    Tensor cet = transpose(ce);
    Tensor gram = matmul(cet, ce);
    addAdaptiveRidge(gram, ridge);
    Tensor rhs = matmul(cet, w);
    return choleskySolve(gram, rhs);
}

Tensor
fitCoefficients(const Tensor &w, const Tensor &b, double ridge)
{
    // argmin_Ce ||W - Ce B|| -> (B B^T + ridge I) Ce^T = B W^T.
    Tensor bt = transpose(b);
    Tensor gram = matmul(b, bt);
    addAdaptiveRidge(gram, ridge);
    Tensor rhs = matmul(b, transpose(w));
    Tensor cet = choleskySolve(gram, rhs);
    return transpose(cet);
}

Tensor
fitCoefficientsMasked(const Tensor &w, const Tensor &b, const Tensor &mask,
                      double ridge)
{
    SE_ASSERT(mask.dim(0) == w.dim(0) && mask.dim(1) == b.dim(0),
              "mask shape mismatch");
    const int64_t m = w.dim(0), r = b.dim(0), n = b.dim(1);
    Tensor ce({m, r});

    // Every per-row Gram entry is a dot product of two full basis
    // rows — independent of the mask — so the r x r Gram B B^T and the
    // m x r right-hand side W B^T are each computed ONCE through
    // kernels::gemmABtColBiasD (the double-chain ascending-t kernel,
    // the exact rounding sequence of the legacy per-row dots kept in
    // tests/reference/), and each row's solve just gathers its masked
    // submatrix: O(r^2 * n + m*r*n) GEMM work instead of the legacy
    // O(m * q^2 * n) dots, with bit-identical outputs.
    Tensor gram_full({r, r});
    kernels::gemmABtColBiasD(b.data(), b.data(), nullptr,
                             gram_full.data(), r, n, r);
    Tensor rhs_full({m, r});
    kernels::gemmABtColBiasD(w.data(), b.data(), nullptr,
                             rhs_full.data(), m, n, r);

    std::vector<int64_t> idx;
    idx.reserve((size_t)r);
    for (int64_t i = 0; i < m; ++i) {
        idx.clear();
        for (int64_t j = 0; j < r; ++j)
            if (mask.at(i, j) != 0.0f)
                idx.push_back(j);
        if (idx.empty())
            continue;
        const int64_t q = (int64_t)idx.size();
        Tensor gram({q, q});
        Tensor rhs({q, (int64_t)1});
        for (int64_t u = 0; u < q; ++u) {
            for (int64_t v = 0; v < q; ++v)
                gram.at(u, v) = gram_full.at(idx[(size_t)u],
                                             idx[(size_t)v]);
            gram.at(u, u) += (float)ridge + 1e-7f;
            rhs.at(u, 0) = rhs_full.at(i, idx[(size_t)u]);
        }
        Tensor sol = choleskySolve(gram, rhs);
        for (int64_t u = 0; u < q; ++u)
            ce.at(i, idx[(size_t)u]) = sol.at(u, 0);
    }
    return ce;
}

} // namespace linalg
} // namespace se
