#include "nn/gconv_lstm.hpp"

#include "compiler/fusion.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::nn {

GConvLSTM::GConvLSTM(int64_t in_features, int64_t out_features, int k,
                     Rng& rng)
    : in_(in_features),
      out_(out_features),
      conv_xi_(in_features, out_features, k, rng),
      conv_hi_(out_features, out_features, k, rng, /*bias=*/false),
      conv_xf_(in_features, out_features, k, rng),
      conv_hf_(out_features, out_features, k, rng, /*bias=*/false),
      conv_xc_(in_features, out_features, k, rng),
      conv_hc_(out_features, out_features, k, rng, /*bias=*/false),
      conv_xo_(in_features, out_features, k, rng),
      conv_ho_(out_features, out_features, k, rng, /*bias=*/false) {
  register_module("conv_xi", &conv_xi_);
  register_module("conv_hi", &conv_hi_);
  register_module("conv_xf", &conv_xf_);
  register_module("conv_hf", &conv_hf_);
  register_module("conv_xc", &conv_xc_);
  register_module("conv_hc", &conv_hc_);
  register_module("conv_xo", &conv_xo_);
  register_module("conv_ho", &conv_ho_);
}

Tensor GConvLSTM::initial_state(int64_t num_nodes) const {
  return Tensor::zeros({num_nodes, out_});
}

std::pair<Tensor, Tensor> GConvLSTM::forward(core::TemporalExecutor& exec,
                                             const Tensor& x, const Tensor& h_in,
                                             const Tensor& c_in,
                                             const float* edge_weights) const {
  Tensor h = h_in.defined() ? h_in : initial_state(x.rows());
  Tensor c = c_in.defined() ? c_in : initial_state(x.rows());
  namespace fu = compiler::fusion;
  // Gate regions run through the fusing tape compiler (fused single-pass
  // interpreter).
  Tensor i = fu::sigmoid_add(conv_xi_.forward(exec, x, edge_weights),
                             conv_hi_.forward(exec, h, edge_weights));
  Tensor f = fu::sigmoid_add(conv_xf_.forward(exec, x, edge_weights),
                             conv_hf_.forward(exec, h, edge_weights));
  Tensor g = fu::tanh_add(conv_xc_.forward(exec, x, edge_weights),
                          conv_hc_.forward(exec, h, edge_weights));
  Tensor c_next = fu::lstm_cell_state(f, c, i, g);
  Tensor o = fu::sigmoid_add(conv_xo_.forward(exec, x, edge_weights),
                             conv_ho_.forward(exec, h, edge_weights));
  Tensor h_next = fu::mul_tanh(o, c_next);
  return {h_next, c_next};
}

GConvLSTMRegressor::GConvLSTMRegressor(int64_t in_features, int64_t hidden,
                                       int k, Rng& rng)
    : hidden_(hidden), lstm_(in_features, hidden, k, rng),
      head_(hidden, 1, rng) {
  register_module("lstm", &lstm_);
  register_module("head", &head_);
}

Tensor GConvLSTMRegressor::initial_state(int64_t num_nodes) const {
  return Tensor::zeros({num_nodes, 2 * hidden_});
}

std::pair<Tensor, Tensor> GConvLSTMRegressor::step(
    core::TemporalExecutor& exec, const Tensor& x, const Tensor& state,
    const float* edge_weights) {
  STG_CHECK(state.defined() && state.cols() == 2 * hidden_,
            "packed LSTM state must be [N, 2*hidden]");
  Tensor h = ops::slice_cols(state, 0, hidden_);
  Tensor c = ops::slice_cols(state, hidden_, 2 * hidden_);
  auto [h_next, c_next] = lstm_.forward(exec, x, h, c, edge_weights);
  Tensor packed = ops::cat_cols(h_next, c_next);
  return {head_.forward(ops::relu(h_next)), packed};
}

}  // namespace stgraph::nn
