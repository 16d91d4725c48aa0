// Extending STGraph (paper §VI): two extension points in one example —
//   1. registering a custom backend through the factory registry (here an
//      instrumented backend that counts aggregation launches, standing in
//      for the TensorFlow/MXNet backends the paper lists as future work),
//   2. authoring a new vertex-centric layer with the tracing frontend and
//      compiling its forward AND backward kernels without writing any
//      kernel code.
//
// Build & run:  ./build/examples/custom_backend
#include <iostream>

#include "compiler/autodiff.hpp"
#include "compiler/passes.hpp"
#include "compiler/trace.hpp"
#include "core/backend.hpp"
#include "core/executor.hpp"
#include "graph/static_graph.hpp"
#include "util/rng.hpp"

using namespace stgraph;

namespace {

// A delegating backend that counts kernel launches — the smallest useful
// demonstration of the backend seam: framework code never changes.
class CountingBackend final : public core::Backend {
 public:
  std::string name() const override { return "counting"; }
  Tensor tensor_from_host(const std::vector<float>& v, Shape s) const override {
    return inner_->tensor_from_host(v, std::move(s));
  }
  Tensor zeros(Shape s) const override { return inner_->zeros(std::move(s)); }
  void launch_aggregation(const compiler::KernelSpec& spec,
                          const compiler::KernelArgs& args) const override {
    ++launches_;
    inner_->launch_aggregation(spec, args);
  }
  uint64_t launches() const { return launches_; }

 private:
  std::unique_ptr<core::Backend> inner_ =
      core::BackendRegistry::instance().create("native");
  mutable uint64_t launches_ = 0;
};

}  // namespace

int main() {
  // 1. Factory registration.
  core::BackendRegistry::instance().register_backend(
      "counting", [] { return std::make_unique<CountingBackend>(); });
  std::cout << "registered backends:";
  for (const auto& n : core::BackendRegistry::instance().available())
    std::cout << " " << n;
  std::cout << "\n";
  auto backend = core::BackendRegistry::instance().create("counting");
  auto* counting = static_cast<CountingBackend*>(backend.get());

  // 2. A custom layer's vertex program: weighted mean over in-neighbors
  //    plus a damped self loop (a PageRank-flavoured smoother).
  compiler::Program program = compiler::trace(
      [](compiler::VertexContext& v) -> compiler::AggExpr {
        auto msg = v.constant(0.85f) * v.src_feature(0);
        return v.agg_mean(msg).with_self_loop(v.constant(0.15f));
      });
  std::cout << "\nuser program:  " << program.to_string() << "\n";
  const compiler::Program optimized = compiler::optimize(program);
  std::cout << "optimized:     " << optimized.to_string() << "\n";
  const compiler::Program backward = compiler::differentiate(optimized);
  std::cout << "autodiff:      " << backward.to_string() << "\n";
  const compiler::BackwardNeeds needs = compiler::backward_needs(optimized);
  std::cout << "backward needs forward features? "
            << (needs.input_features ? "yes" : "no — State Stack stays slim")
            << "\n\n";

  // Run the compiled kernels through the custom backend on a toy graph.
  const uint32_t n = 6;
  StaticTemporalGraph graph(
      n, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}}, 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  const SnapshotView& view = exec.forward_view();

  const compiler::KernelSpec fwd = compiler::compile(optimized);
  const compiler::KernelSpec bwd = compiler::compile(backward);
  std::vector<float> x = {1, 2, 3, 4, 5, 6};  // one feature per vertex
  std::vector<float> out(n), grad_in(n), grad_out(n, 1.0f);

  compiler::KernelArgs args;
  args.view = view.in_view;
  args.in_degrees = view.in_degrees;
  const float* inputs[1] = {x.data()};
  args.inputs = inputs;
  args.self_features = x.data();
  args.out = out.data();
  args.num_feats = 1;
  args.producer_is_col = true;
  counting->launch_aggregation(fwd, args);

  args.view = view.out_view;
  const float* ginputs[1] = {grad_out.data()};
  args.inputs = ginputs;
  args.self_features = grad_out.data();
  args.out = grad_in.data();
  args.producer_is_col = false;
  counting->launch_aggregation(bwd, args);

  std::cout << "smoothed values:";
  for (float v : out) std::cout << " " << v;
  std::cout << "\ninput gradients:";
  for (float v : grad_in) std::cout << " " << v;
  std::cout << "\nkernel launches through the counting backend: "
            << counting->launches() << "\n";
  return 0;
}
