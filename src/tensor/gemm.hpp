// Raw GEMM, no autograd: a register-blocked kernel over runtime/simd.hpp.
// Every C element is one fused-multiply-add chain, k ascending from +0,
// written with explicit fma (simd `fma`, scalar std::fmaf), so its bits do
// not depend on the vector width, the lane count, STGRAPH_SIMD or the
// compiler's FP contraction — this TU builds with -ffp-contract=off like
// every other numeric TU. The fused and unfused training paths both call
// this one kernel, so GEMM cannot break their bit-parity either.
#pragma once

#include "tensor/tensor.hpp"

namespace stgraph::ops::detail {

/// C[M,N] = op(A)·op(B), row-major. ta/tb transpose the operand reads.
Tensor gemm(const Tensor& a, const Tensor& b, bool ta, bool tb);

}  // namespace stgraph::ops::detail
