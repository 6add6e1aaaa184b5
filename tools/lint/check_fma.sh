#!/bin/sh
# check_fma.sh — objdump gate on the AVX2 micro-kernel TU.
#
# The bit-identity contract (README "Runtime ISA dispatch") requires
# src/kernels/dispatch_avx2.cc to round twice per multiply-add
# (mul-round-add-round); a fused multiply-add rounds once. The build
# enforces this by compiling the TU with -mavx2 and never -mfma; this
# check enforces it from the other side: compile the TU standalone
# under the house flag sets, disassemble, and fail on ANY fused
# multiply-add mnemonic (vfmadd/vfmsub/vfnmadd/vfnmsub). It also
# fails when the object carries no packed-double ymm arithmetic
# (vmulpd/vaddpd on %ymm): the conv-forward double-chain kernel lives
# in this TU, so its absence means the scan did not cover it.
#
#   tools/lint/check_fma.sh              # the gate (CI, ctest -L lint)
#   tools/lint/check_fma.sh --self-test  # seed a violation (-mfma
#                                        # -ffp-contract=fast) and
#                                        # assert the detector fires;
#                                        # build without -mavx2 and
#                                        # assert the double-chain
#                                        # detector finds nothing
#
# Exit 0 = clean (or self-test detector fired); non-zero otherwise.
# Runs from the repo root. $CXX overrides the compiler (default c++).

set -eu

cd "$(dirname "$0")/../.."
CXX="${CXX:-c++}"
TU=src/kernels/dispatch_avx2.cc
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FMA_RE='vfmadd|vfmsub|vfnmadd|vfnmsub'

# Disassemble $1.o, print count of fused-multiply-add instructions.
count_fma() {
    objdump -d "$1" | grep -cE "$FMA_RE" || true
}

# Sanity gate: the object must actually contain AVX2 code (ymm
# registers) — otherwise the TU compiled to the nullptr fallback and
# the FMA scan inspected nothing.
count_ymm() {
    objdump -d "$1" | grep -c '%ymm' || true
}

# Packed-double ymm multiplies/adds: the AVX2 double-chain kernel.
count_pd_ymm() {
    objdump -d "$1" | grep -E 'v(mul|add)pd' | grep -c '%ymm' || true
}

compile() {
    # $1 = output object, rest = extra flags
    out="$1"; shift
    "$CXX" -std=c++17 -c -Isrc "$@" "$TU" -o "$out"
}

if [ "${1:-}" = "--self-test" ]; then
    # Seed the violation the gate exists to catch: same TU, FMA ISA
    # enabled and contraction explicitly allowed. The detector MUST
    # fire — if it does not, the gate is blind and every green run
    # it ever produced is meaningless.
    compile "$WORK/seeded.o" -O2 -mavx2 -mfma -ffp-contract=fast
    n=$(count_fma "$WORK/seeded.o")
    if [ "$n" -eq 0 ]; then
        echo "check_fma SELF-TEST FAILED: compiled with -mfma" \
             "-ffp-contract=fast yet found 0 fused instructions —" \
             "the detector is blind" >&2
        exit 1
    fi
    # Without -mavx2 the TU is the nullptr fallback: the double-chain
    # detector must report nothing there, or it could never fire.
    compile "$WORK/fallback.o" -O2
    pd=$(count_pd_ymm "$WORK/fallback.o")
    if [ "$pd" -ne 0 ]; then
        echo "check_fma SELF-TEST FAILED: found $pd packed-double" \
             "ymm instructions in a build without -mavx2 — the" \
             "double-chain detector is blind" >&2
        exit 1
    fi
    echo "check_fma self-test OK: detector fired ($n fused" \
         "instructions in the seeded build); double-chain detector" \
         "silent on the non-AVX2 build"
    exit 0
fi

status=0
for flags in "-O2 -mavx2" "-O2 -DNDEBUG -mavx2" "-O3 -DNDEBUG -mavx2"; do
    # shellcheck disable=SC2086
    compile "$WORK/gate.o" $flags
    ymm=$(count_ymm "$WORK/gate.o")
    if [ "$ymm" -eq 0 ]; then
        echo "check_fma: [$flags] produced no AVX2 code (0 ymm" \
             "references) — nothing was checked" >&2
        status=1
        continue
    fi
    pd=$(count_pd_ymm "$WORK/gate.o")
    if [ "$pd" -eq 0 ]; then
        echo "check_fma: [$flags] has no packed-double ymm" \
             "arithmetic (vmulpd/vaddpd) — the conv-forward double" \
             "chain is not in the checked TU" >&2
        status=1
        continue
    fi
    n=$(count_fma "$WORK/gate.o")
    if [ "$n" -ne 0 ]; then
        echo "check_fma: [$flags] emitted $n fused multiply-add" \
             "instruction(s) in $TU — the mul-round-add-round" \
             "bit-identity contract is broken:" >&2
        objdump -d "$WORK/gate.o" | grep -E "$FMA_RE" | head -5 >&2
        status=1
    else
        echo "check_fma: [$flags] clean ($ymm ymm refs, $pd" \
             "packed-double ymm ops, 0 fused)"
    fi
done
exit $status
