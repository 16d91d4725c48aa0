// TGCN cell — the model the paper benchmarks against PyG-T (its "default
// configuration of TGCN"). Structure follows PyG-T's implementation: a
// GRU-style cell whose input transform is a GCN convolution and whose
// gates are linear layers over [conv(X) ‖ H]:
//
//   Z  = σ(linear_z([conv_z(X) ‖ H]))          update gate
//   R  = σ(linear_r([conv_r(X) ‖ H]))          reset gate
//   H~ = tanh(linear_h([conv_h(X) ‖ R⊙H]))     candidate state
//   H' = Z⊙H + (1-Z)⊙H~
//
// The three gate convolutions read the same X over the same snapshot, so
// when they aggregate first (in ≤ out, see nn/gcn.hpp) one Â·X per step
// feeds all three: one aggregation launch forward and, when X needs no
// gradient, one recompute launch backward, instead of three each.
//
// The spatial component is the vertex-centric SeastarGCNConv; the temporal
// component is plain backend ops — exactly the division of labor §V-A1
// argues for (temporal state needs no spatial information, so it stays in
// the backend while aggregation goes through generated kernels).
#pragma once

#include "nn/gcn.hpp"
#include "nn/linear.hpp"

namespace stgraph::nn {

class TGCN : public Module {
 public:
  TGCN(int64_t in_features, int64_t out_features, Rng& rng);

  /// One timestep. `h` may be undefined (treated as zeros). Returns H'.
  Tensor forward(core::TemporalExecutor& exec, const Tensor& x,
                 const Tensor& h, const float* edge_weights = nullptr) const;

  /// Fresh zero hidden state for `num_nodes` vertices.
  Tensor initial_state(int64_t num_nodes) const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

 private:
  int64_t in_, out_;
  SeastarGCNConv conv_z_, conv_r_, conv_h_;
  Linear linear_z_, linear_r_, linear_h_;
};

}  // namespace stgraph::nn
