/**
 * @file
 * Reference oracles: the legacy scalar loops the libse fast paths
 * replaced, kept verbatim so tests and the kernel benches can diff
 * against them. libse holds one implementation per op; every kernel
 * there reproduces these loops' rounding order exactly (mul-round-
 * add-round, ascending-k chains, double accumulators), so "agrees with
 * the oracle to the last bit" is the contract.
 *
 * Linked as the se_reference library by the tests, bench_kernels and
 * bench_runtime only — never by libse itself.
 */

#ifndef SE_TESTS_REFERENCE_REFERENCE_HH
#define SE_TESTS_REFERENCE_REFERENCE_HH

#include <cstdint>

#include "kernels/scratch.hh"
#include "nn/layers.hh"
#include "quant/quant.hh"
#include "tensor/tensor.hh"

namespace se {
namespace reference {

/** The legacy 7-deep NCHW conv forward loop over `conv`'s weights. */
Tensor conv2dForward(const nn::Conv2d &conv, const Tensor &x);

/** The legacy linear forward loop: y = x W^T + b. */
Tensor linearForward(const nn::Linear &fc, const Tensor &x);

/**
 * The legacy linear backward loop against input x: accumulates into
 * gradW (and gradB when non-null, shaped like the layer's) and
 * returns gx.
 */
Tensor linearBackward(const nn::Linear &fc, const Tensor &x,
                      const Tensor &gy, Tensor &gradW, Tensor *gradB);

/** The legacy matmul loop: ascending-k float chain, zero A skipped. */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * The legacy masked Ce refit: each row an independent least-squares
 * problem over its mask's basis rows, Gram dots recomputed per row.
 */
Tensor fitCoefficientsMasked(const Tensor &w, const Tensor &b,
                             const Tensor &mask, double ridge = 1e-8);

/**
 * The staged Ce-code GEMM: decode 128-row panels of packed codes into
 * the arena and feed sgemm. Same arguments as kernels::gemmCeB, which
 * is gated against it.
 */
void gemmCeBPanelDecode(const uint8_t *row_mask, const uint8_t *nibbles,
                        int64_t m, int64_t r, const float *basis,
                        int64_t n, const quant::Pow2Alphabet &alpha,
                        float *out, kernels::ScratchArena &arena);

} // namespace reference
} // namespace se

#endif // SE_TESTS_REFERENCE_REFERENCE_HH
