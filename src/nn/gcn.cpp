#include "nn/gcn.hpp"

#include <cmath>

#include "autograd/engine.hpp"
#include "compiler/fusion.hpp"
#include "compiler/trace.hpp"
#include "core/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::nn {
namespace {

// One aggregation launch at the width of `in`: Â·in over the in-neighbor
// view (forward) or Âᵀ·in over the out-neighbor view (backward). A non-null
// `bias` is added to every output row as it is stored.
Tensor aggregate(const compiler::KernelSpec& kernel, const SnapshotView& view,
                 bool forward, const Tensor& in, const float* edge_weights,
                 const float* bias = nullptr) {
  Tensor out = Tensor::empty({in.rows(), in.cols()});
  compiler::KernelArgs args;
  args.view = forward ? view.in_view : view.out_view;
  args.in_degrees = view.in_degrees;
  args.gcn_coef = view.gcn_coef;
  const float* inputs[1] = {in.data()};
  args.inputs = inputs;
  args.self_features = in.data();
  args.edge_weights = edge_weights;
  args.out = out.data();
  args.num_feats = static_cast<uint32_t>(in.cols());
  args.producer_is_col = forward;
  args.epilogue_bias = bias;
  core::native_backend().launch_aggregation(kernel, args);
  return out;
}

}  // namespace

SeastarGCNConv::SeastarGCNConv(int64_t in_features, int64_t out_features,
                               Rng& rng, bool bias)
    : in_(in_features), out_(out_features) {
  STG_CHECK(in_ > 0 && out_ > 0, "GCN dims must be positive");
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  weight_ = register_parameter(
      "weight", Tensor::uniform({in_, out_}, rng, -bound, bound));
  if (bias) bias_ = register_parameter("bias", Tensor::zeros({out_}));

  // The user-level vertex-centric programs: symmetric-normalized sum over
  // in-neighbors plus the self loop, with and without per-edge weights.
  compiler::Program weighted =
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        auto msg = v.gcn_norm() * v.edge_weight() * v.src_feature(0);
        return v.agg_sum(msg).with_self_loop(v.gcn_norm());
      });
  compiler::Program plain =
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        auto msg = v.gcn_norm() * v.src_feature(0);
        return v.agg_sum(msg).with_self_loop(v.gcn_norm());
      });
  fwd_weighted_ = compiler::compile(weighted);
  bwd_weighted_ = compiler::compile(
      compiler::differentiate(fwd_weighted_.program, /*input=*/0));
  fwd_plain_ = compiler::compile(plain);
  bwd_plain_ = compiler::compile(
      compiler::differentiate(fwd_plain_.program, /*input=*/0));
  needs_ = compiler::backward_needs(fwd_weighted_.program);
}

Tensor SeastarGCNConv::forward(
    core::TemporalExecutor& exec, const Tensor& x, const float* edge_weights,
    const std::shared_ptr<SharedAggregate>& shared) const {
  const SnapshotView& view = exec.forward_view();
  STG_CHECK(x.dim() == 2 && x.cols() == in_, "SeastarGCNConv(", in_, "→",
            out_, ") got input ", shape_str(x.shape()));
  STG_CHECK(static_cast<uint32_t>(x.rows()) == view.num_nodes,
            "feature rows ", x.rows(), " != snapshot nodes ", view.num_nodes);
  const compiler::KernelSpec* fwd = edge_weights ? &fwd_weighted_ : &fwd_plain_;
  const compiler::KernelSpec* bwd = edge_weights ? &bwd_weighted_ : &bwd_plain_;
  // Forward-only execution (NoGradGuard or executor inference mode) records
  // no backward, so X needs no gradient there whatever its flag says. The
  // backward computes grad_X only when X needs one (a leaf input often does
  // not): the engine accepts an undefined gradient for a non-differentiable
  // edge.
  const bool records = NoGradGuard::grad_enabled() && !exec.inference_mode();
  const bool x_needs_grad = records && x.requires_grad();
  const bool agg_first = aggregates_first(x_needs_grad, shared != nullptr);

  // Raw forward computation — autograd history is a single fused node
  // registered below, not a chain of op nodes.
  Tensor ax, xw, out;
  {
    NoGradGuard ng;
    if (agg_first) {
      if (shared && shared->ax.defined()) {
        ax = shared->ax;
        STG_CHECK(ax.rows() == x.rows() && ax.cols() == in_,
                  "shared aggregate ", shape_str(ax.shape()),
                  " does not match input ", shape_str(x.shape()));
      } else {
        ax = aggregate(*fwd, view, /*forward=*/true, x, edge_weights);
        if (shared) shared->ax = ax;
      }
      out = ops::matmul(ax, weight_);
      if (bias_.defined()) out = ops::add_bias(out, bias_);
    } else {
      xw = ops::matmul(x, weight_);
      // Epilogue fusion: graft the bias add onto the aggregation's
      // accumulator writeback instead of a second read-modify-write pass
      // over `out`. The add sees the same two floats either way, so this is
      // bit-identical to the unfused kernel-then-add_bias sequence, which
      // runs when a test has installed the fusion replay seam.
      const bool fuse_bias =
          bias_.defined() && compiler::fusion::replay() == nullptr;
      out = aggregate(*fwd, view, /*forward=*/true, xw, edge_weights,
                      fuse_bias ? bias_.data() : nullptr);
      if (bias_.defined() && !fuse_bias) out = ops::add_bias(out, bias_);
    }
  }

  // Forward-only execution retains nothing: no saved set, no node, and no
  // reference to the shared aggregate.
  if (!records) return out;

  // Saved-state sets: pruned per backward-needs analysis vs conservative.
  // X always leads the saved set; the backward node reads saved.front().
  // Aggregating first, the aggregation's input is X itself, already saved.
  std::vector<Tensor> pruned = {x};
  if (!agg_first && needs_.input_features) pruned.push_back(xw);
  // The conservative set a needs-unaware executor would keep: every
  // forward intermediate, materialized (detach() copies storage). Built
  // only when the executor keeps it, so no copy is made to be dropped.
  std::vector<Tensor> unpruned;
  if (!exec.state_pruning()) unpruned = {x, agg_first ? ax : xw, out.detach()};
  const core::StateStack::Ticket ticket =
      exec.save_for_backward(std::move(pruned), std::move(unpruned));

  const uint32_t t = exec.current_forward_timestamp();
  core::TemporalExecutor* exec_ptr = &exec;
  Tensor weight = weight_;
  const bool has_bias = bias_.defined();
  std::shared_ptr<SharedAggregate> share = agg_first ? shared : nullptr;
  if (share) ++share->pending;

  auto node = std::make_shared<autograd::LambdaNode>(
      "seastar_gcn",
      [exec_ptr, t, ticket, weight, fwd, bwd, edge_weights, has_bias,
       agg_first, x_needs_grad,
       share](const Tensor& grad_out) -> std::vector<Tensor> {
        NoGradGuard ng;
        // 1. Snapshot for this timestamp via the Graph Stack.
        const SnapshotView& bview = exec_ptr->backward_view(t);
        // 2. Saved forward state from the State Stack (LIFO-checked).
        std::vector<Tensor> saved = exec_ptr->retrieve_saved(ticket);
        const Tensor& x_saved = saved.front();  // X always leads the set
        // 3. Weight/input gradients, aggregating over the backward views
        //    (gap-aware for GPMA).
        Tensor grad_x, grad_w;
        if (agg_first) {
          Tensor ax = share ? share->ax : Tensor();
          if (!ax.defined()) {
            ax = aggregate(*fwd, bview, /*forward=*/true, x_saved,
                           edge_weights);
            if (share) share->ax = ax;
          }
          grad_w = ops::matmul(ax, grad_out, true, false);
          if (share && --share->pending == 0) share->ax = Tensor();
          if (x_needs_grad)
            grad_x = aggregate(*bwd, bview, /*forward=*/false,
                               ops::matmul(grad_out, weight, false, true),
                               edge_weights);
        } else {
          Tensor g_xw =
              aggregate(*bwd, bview, /*forward=*/false, grad_out, edge_weights);
          grad_w = ops::matmul(x_saved, g_xw, true, false);
          if (x_needs_grad) grad_x = ops::matmul(g_xw, weight, false, true);
        }
        Tensor grad_b;
        if (has_bias) {
          grad_b = Tensor::empty({grad_out.cols()});
          ops::detail::column_sums(grad_out.data(), grad_out.rows(),
                                   grad_out.cols(), grad_b.data());
        }
        return {grad_x, grad_w, grad_b};
      });
  node->add_input(x);
  node->add_input(weight_);
  node->add_input(bias_);  // undefined tensor → non-differentiable edge
  node->set_output(out);
  return out;
}

}  // namespace stgraph::nn
