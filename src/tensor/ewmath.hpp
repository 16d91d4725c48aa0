// Elementwise math shared by every path that evaluates an activation: the
// tape ops (tensor/ops.cpp: ops::sigmoid, ops::tanh_op, the BCE-with-logits
// loss) call the scalar entry points, the fusing compiler's SIMD
// interpreter (compiler/fusion.cpp) the block entry points.
//
// sigmoid and tanh have exactly one definition, in tensor/ewmath.cpp: one
// template over the runtime/simd.hpp backends, instantiated there for
// ScalarOps (the scalar entry points) and NativeOps (the block entry
// points). That TU is built with -ffp-contract=off and every backend op is
// lane-exact, so
//
//   * the scalar entry point and every lane of the block entry point give
//     the same bits, wherever a block's vector/tail split lands — the
//     fused/unfused parity contract and the any-width, any-thread-count
//     determinism contract both rest on this;
//   * no other TU re-instantiates the template under different contraction
//     flags.
//
// Accuracy contract: within 2 ulp of the correctly rounded result over the
// whole float range, exact at ±0 (sigmoid 0.5, tanh ±0) and ±inf (sigmoid
// 1 / +0, tanh ±1), subnormal sigmoid results rounded once, NaN in → NaN
// out. These are NOT glibc's bits (expf/tanhf are not called).
#pragma once

#include <cstddef>

namespace stgraph::ewmath {

/// Logistic sigmoid 1/(1+e^-v), branch-free and overflow-free.
float sigmoid(float v);
/// Hyperbolic tangent.
float tanh(float v);

/// y[i] = sigmoid(x[i]) for i < n: native-width vectors, then the tail
/// through the scalar entry point. Bits equal a loop over the scalar entry
/// point. x may alias y.
void sigmoid(const float* x, float* y, std::size_t n);
/// y[i] = tanh(x[i]); same contract as the sigmoid block entry point.
void tanh(const float* x, float* y, std::size_t n);

inline float relu(float v) { return v > 0 ? v : 0.0f; }

inline float leaky_relu(float v, float slope) {
  return v > 0 ? v : slope * v;
}

}  // namespace stgraph::ewmath
