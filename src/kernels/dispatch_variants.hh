/**
 * @file
 * Internal registry hooks between dispatch.cc and the per-ISA
 * translation units. Each variant TU is compiled unconditionally but
 * returns nullptr when its ISA was not available at compile time
 * (non-x86 target, or the compiler lacking -mavx2), so the dispatch
 * table degrades gracefully instead of breaking the link.
 */

#ifndef SE_KERNELS_DISPATCH_VARIANTS_HH
#define SE_KERNELS_DISPATCH_VARIANTS_HH

#include "kernels/dispatch.hh"

namespace se {
namespace kernels {
namespace detail {

/** AVX2 variant table, or nullptr when not compiled in. */
const KernelOps *avx2Ops();

} // namespace detail
} // namespace kernels
} // namespace se

#endif // SE_KERNELS_DISPATCH_VARIANTS_HH
