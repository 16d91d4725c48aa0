#include "micro.hpp"

#include <functional>

#include "compiler/autodiff.hpp"
#include "compiler/kernel.hpp"
#include "compiler/trace.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgbench {
namespace {

using stgraph::Tensor;

/// Runs `fn` until `seconds` have passed (at least 3 times, after one
/// untimed call) and returns calls per second.
double calls_per_second(const std::function<void()>& fn, double seconds) {
  fn();
  const int64_t t0 = now_ns();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  uint64_t calls = 0;
  int64_t t = t0;
  while (calls < 3 || t - t0 < budget) {
    fn();
    ++calls;
    t = now_ns();
  }
  return static_cast<double>(calls) / (static_cast<double>(t - t0) * 1e-9);
}

double gemm_gflops(int64_t m, int64_t k, int64_t n, bool ta, bool tb,
                   stgraph::Rng& rng, double seconds) {
  const Tensor a = ta ? Tensor::randn({k, m}, rng) : Tensor::randn({m, k}, rng);
  const Tensor b = tb ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
  stgraph::NoGradGuard ng;
  const double rate = calls_per_second(
      [&] { stgraph::ops::matmul(a, b, ta, tb); }, seconds);
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) * rate * 1e-9;
}

/// Bytes one aggregation launch moves: per edge the producer's H-float row,
/// its column index and its coefficient; per row the self row read, the
/// output row written, the row offset and the degree.
double aggregation_bytes(uint32_t nodes, uint32_t edges, int64_t h) {
  const double hf = static_cast<double>(h);
  return 4.0 * (static_cast<double>(edges) * (hf + 2) +
                static_cast<double>(nodes) * (2 * hf + 2));
}

double aggregation_gbps(const stgraph::compiler::KernelSpec& spec,
                        const stgraph::SnapshotView& view, bool forward,
                        const Tensor& input, Tensor& out, int64_t h,
                        double seconds) {
  stgraph::compiler::KernelArgs args;
  args.view = forward ? view.in_view : view.out_view;
  args.in_degrees = view.in_degrees;
  args.gcn_coef = view.gcn_coef;
  const float* inputs[1] = {input.data()};
  args.inputs = inputs;
  args.self_features = input.data();
  args.out = out.data();
  args.num_feats = static_cast<uint32_t>(h);
  args.producer_is_col = forward;
  const double rate = calls_per_second(
      [&] { stgraph::compiler::run_kernel(spec, args); }, seconds);
  return aggregation_bytes(view.num_nodes, view.num_edges, h) * rate * 1e-9;
}

}  // namespace

MicroRates measure_kernels(stgraph::STGraphBase& graph, int64_t features,
                           int64_t hidden, uint64_t seed,
                           double seconds_per_kernel) {
  namespace cc = stgraph::compiler;
  stgraph::Rng rng(seed ^ 0x6d6963726fULL);
  const int64_t n = graph.num_nodes();
  MicroRates r;
  r.gemm_fwd_gflops =
      gemm_gflops(n, features, hidden, false, false, rng, seconds_per_kernel);
  r.gemm_dx_gflops =
      gemm_gflops(n, hidden, features, false, true, rng, seconds_per_kernel);
  r.gemm_dw_gflops =
      gemm_gflops(features, n, hidden, true, false, rng, seconds_per_kernel);

  // The program SeastarGCNConv compiles for an unweighted graph.
  const cc::KernelSpec fwd = cc::compile(
      cc::trace([](cc::VertexContext& v) -> cc::AggExpr {
        return v.agg_sum(v.gcn_norm() * v.src_feature(0))
            .with_self_loop(v.gcn_norm());
      }));
  const cc::KernelSpec bwd = cc::compile(cc::differentiate(fwd.program, 0));
  const Tensor input = Tensor::randn({n, hidden}, rng);
  Tensor out = Tensor::empty({n, hidden});
  r.agg_fwd_gbps = aggregation_gbps(fwd, graph.get_graph(0), true, input, out,
                                    hidden, seconds_per_kernel);
  r.agg_bwd_gbps = aggregation_gbps(bwd, graph.get_backward_graph(0), false,
                                    input, out, hidden, seconds_per_kernel);
  return r;
}

void set_kernel_metrics(Result& result, const MicroRates& r) {
  result.set("tensor.gemm_fwd_gflops", r.gemm_fwd_gflops);
  result.set("tensor.gemm_dx_gflops", r.gemm_dx_gflops);
  result.set("tensor.gemm_dw_gflops", r.gemm_dw_gflops);
  result.set("compiler.agg_fwd_gbps", r.agg_fwd_gbps);
  result.set("compiler.agg_bwd_gbps", r.agg_bwd_gbps);
}

}  // namespace stgbench
