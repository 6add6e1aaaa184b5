/**
 * @file
 * Dense linear algebra kernels used by the SmartExchange decomposition:
 * matrix multiplication, norms, Cholesky-based SPD solves, and the two
 * alternating least-squares factor updates for W ~= Ce * B.
 *
 * All matrices are 2-D Tensors in row-major layout. Problem sizes are
 * tiny (B is SxS with S in {1,3,5,7}; Ce has at most a few thousand
 * rows); matmul and the masked refit run on the blocked kernels of
 * kernels/gemm.hh, everything else favours clarity.
 */

#ifndef SE_LINALG_LINALG_HH
#define SE_LINALG_LINALG_HH

#include "tensor/tensor.hh"

namespace se {
namespace linalg {

/** C = A * B for 2-D tensors (m x k) * (k x n). */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Transpose of a 2-D tensor. */
Tensor transpose(const Tensor &a);

/** Frobenius norm of any tensor. */
double frobNorm(const Tensor &a);

/** Frobenius norm of (a - b); shapes must match. */
double frobDiff(const Tensor &a, const Tensor &b);

/**
 * Solve the SPD system A * X = B in-place via Cholesky factorization.
 *
 * A is n x n symmetric positive definite (a small ridge may be added by
 * the caller), B is n x m. Returns X (n x m).
 */
Tensor choleskySolve(Tensor a, Tensor b);

/**
 * Least-squares update of the basis: argmin_B || W - Ce * B ||_F.
 *
 * Solves the normal equations (Ce^T Ce + ridge I) B = Ce^T W. The ridge
 * keeps the solve well-posed when Ce has zero columns (fully pruned
 * coefficients), which the SmartExchange sparsifier produces routinely.
 */
Tensor fitBasis(const Tensor &w, const Tensor &ce, double ridge = 1e-8);

/**
 * Least-squares update of the coefficients:
 * argmin_Ce || W - Ce * B ||_F, i.e. the transposed problem
 * (B B^T + ridge I) Ce^T = B W^T.
 */
Tensor fitCoefficients(const Tensor &w, const Tensor &b,
                       double ridge = 1e-8);

/**
 * Least-squares refit of Ce restricted to its current support: zero
 * entries stay zero, only non-zeros are re-estimated (row by row).
 * Used after sparsification so pruning does not destroy the fit.
 */
Tensor fitCoefficientsMasked(const Tensor &w, const Tensor &b,
                             const Tensor &mask, double ridge = 1e-8);

} // namespace linalg
} // namespace se

#endif // SE_LINALG_LINALG_HH
