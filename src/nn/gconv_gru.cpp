#include "nn/gconv_gru.hpp"

#include "compiler/fusion.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::nn {

ChebConvLite::ChebConvLite(int64_t in_features, int64_t out_features, int k,
                           Rng& rng, bool bias)
    : k_(k), lin0_(in_features, out_features, rng, bias) {
  STG_CHECK(k == 1 || k == 2, "ChebConvLite supports K in {1, 2}, got ", k);
  register_module("lin0", &lin0_);
  if (k_ == 2) {
    hop1_ = std::make_unique<SeastarGCNConv>(in_features, out_features, rng,
                                             /*bias=*/false);
    register_module("hop1", hop1_.get());
  }
}

Tensor ChebConvLite::forward(core::TemporalExecutor& exec, const Tensor& x,
                             const float* edge_weights) const {
  Tensor y = lin0_.forward(x);
  if (k_ == 2) y = ops::add(y, hop1_->forward(exec, x, edge_weights));
  return y;
}

GConvGRU::GConvGRU(int64_t in_features, int64_t out_features, int k, Rng& rng)
    : in_(in_features),
      out_(out_features),
      conv_xz_(in_features, out_features, k, rng),
      conv_hz_(out_features, out_features, k, rng, /*bias=*/false),
      conv_xr_(in_features, out_features, k, rng),
      conv_hr_(out_features, out_features, k, rng, /*bias=*/false),
      conv_xh_(in_features, out_features, k, rng),
      conv_hh_(out_features, out_features, k, rng, /*bias=*/false) {
  register_module("conv_xz", &conv_xz_);
  register_module("conv_hz", &conv_hz_);
  register_module("conv_xr", &conv_xr_);
  register_module("conv_hr", &conv_hr_);
  register_module("conv_xh", &conv_xh_);
  register_module("conv_hh", &conv_hh_);
}

Tensor GConvGRU::initial_state(int64_t num_nodes) const {
  return Tensor::zeros({num_nodes, out_});
}

Tensor GConvGRU::forward(core::TemporalExecutor& exec, const Tensor& x,
                         const Tensor& h_in, const float* edge_weights) const {
  Tensor h = h_in.defined() ? h_in : initial_state(x.rows());
  using namespace ops;
  namespace fu = compiler::fusion;
  // Gate elementwise regions run through the fusing tape compiler: each
  // helper runs its optimized program as one blocked pass.
  Tensor z = fu::sigmoid_add(conv_xz_.forward(exec, x, edge_weights),
                             conv_hz_.forward(exec, h, edge_weights));
  Tensor r = fu::sigmoid_add(conv_xr_.forward(exec, x, edge_weights),
                             conv_hr_.forward(exec, h, edge_weights));
  Tensor h_tilde =
      fu::tanh_add(conv_xh_.forward(exec, x, edge_weights),
                   conv_hh_.forward(exec, mul(r, h), edge_weights));
  return fu::gate_combine(z, h, h_tilde);
}

GConvGRURegressor::GConvGRURegressor(int64_t in_features, int64_t hidden,
                                     int k, Rng& rng)
    : gru_(in_features, hidden, k, rng), head_(hidden, 1, rng) {
  register_module("gru", &gru_);
  register_module("head", &head_);
}

std::pair<Tensor, Tensor> GConvGRURegressor::step(core::TemporalExecutor& exec,
                                                  const Tensor& x,
                                                  const Tensor& h,
                                                  const float* edge_weights) {
  Tensor h_next = gru_.forward(exec, x, h, edge_weights);
  return {head_.forward(ops::relu(h_next)), h_next};
}

}  // namespace stgraph::nn
