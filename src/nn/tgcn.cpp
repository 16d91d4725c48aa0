#include "nn/tgcn.hpp"

#include "compiler/fusion.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace stgraph::nn {

TGCN::TGCN(int64_t in_features, int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      conv_z_(in_features, out_features, rng),
      conv_r_(in_features, out_features, rng),
      conv_h_(in_features, out_features, rng),
      linear_z_(2 * out_features, out_features, rng),
      linear_r_(2 * out_features, out_features, rng),
      linear_h_(2 * out_features, out_features, rng) {
  register_module("conv_z", &conv_z_);
  register_module("conv_r", &conv_r_);
  register_module("conv_h", &conv_h_);
  register_module("linear_z", &linear_z_);
  register_module("linear_r", &linear_r_);
  register_module("linear_h", &linear_h_);
}

Tensor TGCN::initial_state(int64_t num_nodes) const {
  return Tensor::zeros({num_nodes, out_});
}

Tensor TGCN::forward(core::TemporalExecutor& exec, const Tensor& x,
                     const Tensor& h_in, const float* edge_weights) const {
  Tensor h = h_in.defined() ? h_in : initial_state(x.rows());
  STG_CHECK(h.rows() == x.rows() && h.cols() == out_,
            "hidden state shape ", shape_str(h.shape()), " incompatible with ",
            x.rows(), " nodes x ", out_, " features");

  using namespace ops;
  namespace fu = compiler::fusion;
  // All three gates convolve the same X over the same snapshot, so in the
  // aggregate-first order Â·X is computed once and shared. It is released
  // as soon as conv_h_ returns, so it is not held through the h-gate's
  // GEMMs; in backward the gates' nodes recompute it once through the same
  // handle.
  auto shared = std::make_shared<SeastarGCNConv::SharedAggregate>();
  // Each gate's bias add + activation is one fused elementwise region
  // (σ(xW + b) / tanh(xW + b)); the matmul stays a tape op. The bias add
  // inside the region sees the same floats as Linear::forward's
  // add_bias-then-activation sequence, so fused and unfused paths agree
  // bitwise.
  Tensor z = fu::bias_sigmoid(
      matmul(cat_cols(conv_z_.forward(exec, x, edge_weights, shared), h),
             linear_z_.weight()),
      linear_z_.bias());
  Tensor r = fu::bias_sigmoid(
      matmul(cat_cols(conv_r_.forward(exec, x, edge_weights, shared), h),
             linear_r_.weight()),
      linear_r_.bias());
  Tensor conv_h = conv_h_.forward(exec, x, edge_weights, shared);
  shared->ax = Tensor();
  Tensor h_tilde = fu::bias_tanh(
      matmul(cat_cols(conv_h, mul(r, h)), linear_h_.weight()),
      linear_h_.bias());
  return fu::gate_combine(z, h, h_tilde);
}

}  // namespace stgraph::nn
