// SeastarGCNConv — the STGraph GCN layer built on the vertex-centric
// compiler and the temporally-aware executor.
//
// The layer computes out = Â·X·W + b as ONE fused unit (as Seastar's
// generated kernels are), in whichever multiplication order aggregates
// fewer floats over a training step:
//   aggregate first, out = (Â·X)·W + b — one aggregation launch at width
//             `in` over the in-neighbor view, then the GEMM and the bias
//             add. The backward recomputes Â·X (width `in`) and, when X
//             needs a gradient, runs Âᵀ·(g·Wᵀ) (width `in` again);
//   aggregate last, out = Â·(X·W) + b — the GEMM, then one aggregation
//             launch at width `out` with the bias add grafted onto its
//             writeback (epilogue fusion); the backward runs one more at
//             width `out`.
// So a layer aggregates first when in ≤ out (DGL GraphConv's rule), but,
// when X needs a gradient, only when 3·in < 2·out. Sibling layers sharing
// one Â·X (TGCN's three gates) split the forward aggregation and the
// recompute between them and keep in ≤ out.
// The two orders are the same function but not the same floats.
//
// The backward is registered as a single autograd node that
//   1. asks the executor for the backward snapshot of its timestamp
//      (Graph Stack pop + Get-Backward-Graph),
//   2. retrieves its saved tensors from the State Stack by ticket,
//   3. aggregate first: recomputes Â·X from the saved X over the backward
//      snapshot's in-neighbor view for grad_W = (Â·X)ᵀ·g, and, only when X
//      needs a gradient, runs the compiler-derived backward kernel over the
//      out-neighbor view for grad_X = Âᵀ·(g·Wᵀ);
//      aggregate last: runs the backward kernel for g_xw = Âᵀ·g, then
//      grad_W = Xᵀ·g_xw and, only when X needs a gradient,
//      grad_X = g_xw·Wᵀ.
//   Gapped PMA views are consumed in place in both directions.
//
// Saved-state pruning: the compiler's backward-needs analysis shows the
// aggregation itself needs nothing from the forward pass; only the weight
// gradient needs X (aggregate last) or Â·X, which is recomputed from X
// (aggregate first). With pruning enabled the layer saves exactly {X} in
// either order; X is the caller's own tensor, so saving it costs nothing.
// With pruning disabled (Figure 6 ablation) it saves the conservative set
// a needs-unaware executor would keep: {X, X·W, out} or {X, Â·X, out}.
// The backward recomputes Â·X either way, so the ablation moves memory,
// not bits.
#pragma once

#include <memory>

#include "compiler/autodiff.hpp"
#include "compiler/kernel.hpp"
#include "core/executor.hpp"
#include "nn/module.hpp"

namespace stgraph {
class Rng;
}

namespace stgraph::nn {

class SeastarGCNConv : public Module {
 public:
  /// Â·X shared by sibling aggregate-first convolutions that read the same
  /// X with the same edge weights over the same snapshot (TGCN's three
  /// gates). The first sibling's forward fills `ax`; the owner resets it as
  /// soon as the last sibling's forward returns. In backward the first
  /// sibling node to run recomputes Â·X from its saved X, and the last one
  /// (when `pending` reaches zero) frees it.
  struct SharedAggregate {
    Tensor ax;        // Â·X [N, in]; undefined while not materialized
    int pending = 0;  // backward nodes that still read `ax`
  };

  SeastarGCNConv(int64_t in_features, int64_t out_features, Rng& rng,
                 bool bias = true);

  /// Aggregate x [N, in] over the executor's current forward snapshot.
  /// `edge_weights` (indexed by the snapshot's shared edge labels) are
  /// optional; the kernel was compiled with GCN degree normalization.
  /// `shared` lets sibling aggregate-first convolutions compute Â·X once;
  /// aggregate-last convolutions ignore it.
  Tensor forward(core::TemporalExecutor& exec, const Tensor& x,
                 const float* edge_weights = nullptr,
                 const std::shared_ptr<SharedAggregate>& shared = {}) const;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  /// The order rule (see the header comment). `x_needs_grad`: a backward
  /// will run for X. `shared`: the layer gets a SharedAggregate handle.
  bool aggregates_first(bool x_needs_grad, bool shared) const {
    return x_needs_grad && !shared ? 3 * in_ < 2 * out_ : in_ <= out_;
  }

  const compiler::KernelSpec& forward_kernel() const { return fwd_weighted_; }

 private:
  int64_t in_, out_;
  Tensor weight_;  // [in, out]
  Tensor bias_;    // [out], optional
  // Kernels are compiled once per program variant at layer construction;
  // the edge-weighted variant is selected when weights are bound.
  compiler::KernelSpec fwd_weighted_, bwd_weighted_;
  compiler::KernelSpec fwd_plain_, bwd_plain_;
  compiler::BackwardNeeds needs_;
};

}  // namespace stgraph::nn
