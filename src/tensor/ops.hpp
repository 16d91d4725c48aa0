// Differentiable tensor operations. Every op is a free function that
// builds an autograd::Node recording its vector–Jacobian product; all
// forward loops run as device kernels (parallel_for_ranges) so op cost is
// attributed to the same substrate as the graph kernels.
#pragma once

#include "tensor/tensor.hpp"

namespace stgraph::ops {

// ---- elementwise ------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
/// x [N, F] + bias [F], broadcast over rows.
Tensor add_bias(const Tensor& x, const Tensor& bias);
/// 1 - x (used by GRU-style gates).
Tensor one_minus(const Tensor& x);
/// Elementwise a / b.
Tensor div(const Tensor& a, const Tensor& b);
/// x scaled by a one-element tensor (gradients flow into the scalar too —
/// attention-weighted sums use this).
Tensor scale(const Tensor& x, const Tensor& scalar);

// ---- activations -------------------------------------------------------
Tensor sigmoid(const Tensor& x);
Tensor tanh_op(const Tensor& x);
Tensor relu(const Tensor& x);
Tensor leaky_relu(const Tensor& x, float slope = 0.01f);
/// exp(x) — building block; used by softmax-ish post-processing in tests.
Tensor exp_op(const Tensor& x);
/// Softmax over a rank-1 tensor (attention weights over periods).
Tensor softmax(const Tensor& x);
/// One element of a rank-1 tensor as a [1] tensor (differentiable view).
Tensor element(const Tensor& x, int64_t index);

// ---- linear algebra ------------------------------------------------------
/// op(A) @ op(B) where op is optional transpose; A [M,K], B [K,N] after ops.
Tensor matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
              bool trans_b = false);

// ---- shape ops -------------------------------------------------------
/// Concatenate along columns: [N, Fa] ++ [N, Fb] -> [N, Fa+Fb].
Tensor cat_cols(const Tensor& a, const Tensor& b);
/// Columns [begin, end) of x.
Tensor slice_cols(const Tensor& x, int64_t begin, int64_t end);
/// Rows [begin, end) of x.
Tensor slice_rows(const Tensor& x, int64_t begin, int64_t end);
/// Gather rows: out[i] = x[index[i]].
Tensor gather_rows(const Tensor& x, const std::vector<uint32_t>& index);
Tensor reshape(const Tensor& x, Shape new_shape);

// ---- reductions -------------------------------------------------------
Tensor sum(const Tensor& x);
Tensor mean(const Tensor& x);
/// Row-wise sum of a [N, F] tensor -> [N] (link-prediction dot scores).
Tensor row_sum(const Tensor& x);

// ---- losses -------------------------------------------------------------
/// mean((pred - target)^2); target is a constant (no grad).
Tensor mse_loss(const Tensor& pred, const Tensor& target);
/// mean BCE with logits, numerically stable:
/// max(z,0) - z*y + log(1 + exp(-|z|)).
Tensor bce_with_logits_loss(const Tensor& logits, const Tensor& targets);

namespace detail {
/// dst[c] = Σ_r src[r·cols + c]: the bias-gradient reduce of add_bias's
/// backward and of fused regions with a bias input. Vectorized across
/// columns; each column still sums rows 0…rows−1 in order from +0, so the
/// bits match a serial row-major loop at every SIMD width.
void column_sums(const float* src, int64_t rows, int64_t cols, float* dst);
}  // namespace detail

}  // namespace stgraph::ops
