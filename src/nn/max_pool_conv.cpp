#include "nn/max_pool_conv.hpp"

#include <cmath>

#include "autograd/engine.hpp"
#include "compiler/trace.hpp"
#include "core/backend.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph::nn {
namespace {
// Argmax indices travel through the State Stack, which holds float
// tensors; vertex ids up to 2^24 round-trip exactly through float32.
constexpr uint32_t kMaxExactFloatId = 1u << 24;

Tensor encode_argmax(const DeviceBuffer<uint32_t>& argmax, int64_t rows,
                     int64_t cols) {
  Tensor t = Tensor::empty({rows, cols});
  float* p = t.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    // kSpace (no candidate) encodes as -1.
    p[i] = argmax[i] == kSpace ? -1.0f : static_cast<float>(argmax[i]);
  }
  return t;
}

DeviceBuffer<uint32_t> decode_argmax(const Tensor& t) {
  DeviceBuffer<uint32_t> out(static_cast<std::size_t>(t.numel()),
                             MemCategory::kScratch);
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    out[static_cast<std::size_t>(i)] =
        p[i] < 0.0f ? kSpace : static_cast<uint32_t>(p[i]);
  }
  return out;
}
}  // namespace

SeastarMaxPoolConv::SeastarMaxPoolConv(int64_t in_features,
                                       int64_t out_features, Rng& rng,
                                       bool bias)
    : in_(in_features), out_(out_features) {
  const float bound = std::sqrt(6.0f / static_cast<float>(in_ + out_));
  weight_ = register_parameter(
      "weight", Tensor::uniform({in_, out_}, rng, -bound, bound));
  if (bias) bias_ = register_parameter("bias", Tensor::zeros({out_}));

  compiler::Program fwd =
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        return v.agg_max(v.src_feature(0))
            .with_self_loop(v.constant(1.0f));
      });
  fwd_kernel_ = compiler::compile(fwd);
  bwd_kernel_ = compiler::compile(compiler::differentiate(fwd_kernel_.program));
  needs_ = compiler::backward_needs(fwd_kernel_.program);
  STG_CHECK(needs_.argmax, "max aggregation must report argmax needs");
}

Tensor SeastarMaxPoolConv::forward(core::TemporalExecutor& exec,
                                   const Tensor& x) const {
  const SnapshotView& view = exec.forward_view();
  STG_CHECK(x.dim() == 2 && x.cols() == in_, "SeastarMaxPoolConv(", in_, "→",
            out_, ") got input ", shape_str(x.shape()));
  STG_CHECK(view.num_nodes < kMaxExactFloatId,
            "argmax float encoding limited to 2^24 vertices");
  core::Backend& backend = core::native_backend();

  Tensor xw, out;
  DeviceBuffer<uint32_t> argmax(
      static_cast<std::size_t>(x.rows()) * static_cast<std::size_t>(out_),
      MemCategory::kScratch);
  {
    NoGradGuard ng;
    xw = ops::matmul(x, weight_);
    out = Tensor::empty({x.rows(), out_});
    compiler::KernelArgs args;
    args.view = view.in_view;
    args.in_degrees = view.in_degrees;
    args.gcn_coef = view.gcn_coef;
    const float* inputs[1] = {xw.data()};
    args.inputs = inputs;
    args.self_features = xw.data();
    args.out = out.data();
    args.argmax_out = argmax.data();
    args.num_feats = static_cast<uint32_t>(out_);
    args.producer_is_col = true;
    backend.launch_aggregation(fwd_kernel_, args);
    if (bias_.defined()) out = ops::add_bias(out, bias_);
  }

  if (!NoGradGuard::grad_enabled()) return out;

  // Saved set per needs analysis: X (weight grad) + the argmax routing.
  Tensor argmax_tensor = encode_argmax(argmax, x.rows(), out_);
  std::vector<Tensor> pruned = {x, argmax_tensor};
  // The conservative set, built only when the executor keeps it.
  std::vector<Tensor> unpruned;
  if (!exec.state_pruning()) unpruned = {x, argmax_tensor, xw, out.detach()};
  const core::StateStack::Ticket ticket =
      exec.save_for_backward(std::move(pruned), std::move(unpruned));

  const uint32_t t = exec.current_forward_timestamp();
  core::TemporalExecutor* exec_ptr = &exec;
  Tensor weight = weight_;
  const compiler::KernelSpec* bwd = &bwd_kernel_;
  const bool has_bias = bias_.defined();
  const int64_t out_f = out_;

  auto node = std::make_shared<autograd::LambdaNode>(
      "seastar_maxpool",
      [exec_ptr, t, ticket, weight, bwd, has_bias,
       out_f](const Tensor& grad_out) -> std::vector<Tensor> {
        NoGradGuard ng;
        const SnapshotView& bview = exec_ptr->backward_view(t);
        std::vector<Tensor> saved = exec_ptr->retrieve_saved(ticket);
        const Tensor& x_saved = saved[0];
        const DeviceBuffer<uint32_t> argmax = decode_argmax(saved[1]);

        Tensor g_xw = Tensor::empty({grad_out.rows(), out_f});
        compiler::KernelArgs args;
        args.view = bview.out_view;
        args.in_degrees = bview.in_degrees;
        args.gcn_coef = bview.gcn_coef;
        const float* inputs[1] = {grad_out.data()};
        args.inputs = inputs;
        args.self_features = grad_out.data();
        args.out = g_xw.data();
        args.argmax_in = argmax.data();
        args.num_feats = static_cast<uint32_t>(out_f);
        args.producer_is_col = false;
        core::native_backend().launch_aggregation(*bwd, args);

        Tensor grad_x = ops::matmul(g_xw, weight, false, true);
        Tensor grad_w = ops::matmul(x_saved, g_xw, true, false);
        Tensor grad_b;
        if (has_bias) {
          grad_b = Tensor::zeros({out_f});
          const float* pg = grad_out.data();
          float* pb = grad_b.data();
          for (int64_t r = 0; r < grad_out.rows(); ++r)
            for (int64_t c = 0; c < out_f; ++c) pb[c] += pg[r * out_f + c];
        }
        return {grad_x, grad_w, grad_b};
      });
  node->add_input(x);
  node->add_input(weight_);
  node->add_input(bias_);
  node->set_output(out);
  return out;
}

}  // namespace stgraph::nn
