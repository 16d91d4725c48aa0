// Micro/ablation benches for the kernel design choices DESIGN.md calls
// out:
//   * fused gather-aggregate-update kernel vs unfused op-at-a-time
//     (edge-parallel gather → scale → scatter),
//   * degree-sorted node_ids processing order vs natural order,
//   * vertex-per-item vs feature-tile scheduling across feature sizes,
//   * the fused elementwise interpreter on the TGCN cell regions
//     (BM_FusedRegion, elements/s).
//
// With --json-out=PATH the google-benchmark suite is skipped and a
// single-threaded kernel-engine ablation (interpreted scalar reference vs
// SIMD engine, inline vs cached GCN-norm coefficients, fused vs unfused)
// runs instead, writing one JSON object for run_all.sh / CI trend lines.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/backend.hpp"
#include "runtime/simd.hpp"

#include "baseline/edge_ops.hpp"
#include "compiler/fusion.hpp"
#include "compiler/fusion_replay.hpp"
#include "compiler/kernel.hpp"
#include "compiler/kernel_reference.hpp"
#include "compiler/trace.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "graph/reorder.hpp"
#include "graph/static_graph.hpp"
#include "nn/gconv_gru.hpp"
#include "nn/models.hpp"
#include "runtime/parallel.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {
using namespace stgraph;

struct Fixture {
  uint32_t n;
  EdgeList edges;
  std::unique_ptr<StaticTemporalGraph> graph;
  SnapshotView view;
  compiler::KernelSpec spec;
  std::vector<float> x;

  Fixture(uint32_t nodes, int edge_count, int64_t F) : n(nodes) {
    Rng rng(7);
    std::set<std::pair<uint32_t, uint32_t>> seen;
    while (static_cast<int>(edges.size()) < edge_count) {
      uint32_t s = rng.next_below(n), d = rng.next_below(n);
      if (s == d || !seen.insert({s, d}).second) continue;
      edges.emplace_back(s, d);
    }
    graph = std::make_unique<StaticTemporalGraph>(n, edges, 1);
    view = graph->get_graph(0);
    spec = compiler::compile(
        compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
          return v.agg_sum(v.gcn_norm() * v.src_feature(0))
              .with_self_loop(v.gcn_norm());
        }));
    x.resize(static_cast<std::size_t>(n) * F);
    for (auto& v : x) v = rng.normal();
  }
};

void BM_FusedAggregation(benchmark::State& state) {
  const int64_t F = state.range(0);
  Fixture fx(2000, 20000, F);
  std::vector<float> out(fx.x.size());
  compiler::KernelArgs args;
  args.view = fx.view.in_view;
  args.in_degrees = fx.view.in_degrees;
  const float* inputs[1] = {fx.x.data()};
  args.inputs = inputs;
  args.self_features = fx.x.data();
  args.out = out.data();
  args.num_feats = static_cast<uint32_t>(F);
  args.producer_is_col = true;
  for (auto _ : state) {
    compiler::run_kernel(fx.spec, args);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.edges.size() * F);
}
BENCHMARK(BM_FusedAggregation)->Arg(8)->Arg(32)->Arg(128);

void BM_UnfusedEdgeParallel(benchmark::State& state) {
  const int64_t F = state.range(0);
  Fixture fx(2000, 20000, F);
  baseline::CooSnapshot coo = baseline::make_coo(fx.n, fx.edges);
  Tensor xt = Tensor::from_vector(fx.x, {fx.n, F});
  NoGradGuard ng;  // measure the kernels, not autograd bookkeeping
  for (auto _ : state) {
    Tensor coef = baseline::gcn_norm(coo);
    Tensor msg = baseline::gather_messages(xt, coo);
    msg = baseline::scale_messages(msg, coef);
    Tensor out = ops::add(baseline::scatter_add(msg, coo),
                          baseline::self_loop_contribution(xt, coo));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * fx.edges.size() * F);
}
BENCHMARK(BM_UnfusedEdgeParallel)->Arg(8)->Arg(32)->Arg(128);

void BM_DegreeSortedOrder(benchmark::State& state) {
  const bool sorted = state.range(0) != 0;
  const int64_t F = 32;
  Fixture fx(5000, 50000, F);
  std::vector<float> out(fx.x.size());
  compiler::KernelArgs args;
  args.view = fx.view.in_view;
  if (!sorted) args.view.node_ids = nullptr;  // natural order ablation
  args.in_degrees = fx.view.in_degrees;
  const float* inputs[1] = {fx.x.data()};
  args.inputs = inputs;
  args.self_features = fx.x.data();
  args.out = out.data();
  args.num_feats = F;
  args.producer_is_col = true;
  for (auto _ : state) {
    compiler::run_kernel(fx.spec, args);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(sorted ? "degree_sorted" : "natural_order");
}
BENCHMARK(BM_DegreeSortedOrder)->Arg(1)->Arg(0);

void BM_RcmReorderedAggregation(benchmark::State& state) {
  // Locality ablation: same aggregation on a scrambled vs RCM-relabelled
  // grid graph (structured graphs are where reordering pays).
  const bool reordered = state.range(0) != 0;
  const uint32_t side = 100;
  const uint32_t n = side * side;
  EdgeList edges;
  auto id = [side](uint32_t r, uint32_t c) { return r * side + c; };
  for (uint32_t r = 0; r < side; ++r)
    for (uint32_t c = 0; c < side; ++c) {
      if (c + 1 < side) edges.emplace_back(id(r, c), id(r, c + 1));
      if (r + 1 < side) edges.emplace_back(id(r, c), id(r + 1, c));
    }
  Rng rng(11);
  VertexOrder scramble(n);
  for (uint32_t v = 0; v < n; ++v) scramble[v] = v;
  rng.shuffle(scramble);
  edges = relabel_edges(edges, scramble);
  if (reordered) edges = relabel_edges(edges, rcm_order(n, edges));

  const int64_t F = 32;
  StaticTemporalGraph graph(n, edges, 1);
  SnapshotView view = graph.get_graph(0);
  compiler::KernelSpec spec = compiler::compile(
      compiler::trace([](compiler::VertexContext& v) -> compiler::AggExpr {
        return v.agg_sum(v.gcn_norm() * v.src_feature(0))
            .with_self_loop(v.gcn_norm());
      }));
  std::vector<float> x(static_cast<std::size_t>(n) * F), out(x.size());
  for (auto& v : x) v = rng.normal();
  compiler::KernelArgs args;
  args.view = view.in_view;
  args.in_degrees = view.in_degrees;
  const float* inputs[1] = {x.data()};
  args.inputs = inputs;
  args.self_features = x.data();
  args.out = out.data();
  args.num_feats = F;
  args.producer_is_col = true;
  for (auto _ : state) {
    compiler::run_kernel(spec, args);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(reordered ? "rcm" : "scrambled");
  state.counters["mean_edge_span"] = mean_edge_span(n, edges);
}
BENCHMARK(BM_RcmReorderedAggregation)->Arg(0)->Arg(1);

void BM_KernelLaunchCount(benchmark::State& state) {
  // Fusion proxy: launches per aggregation — fused path fires exactly one
  // kernel; the unfused pipeline fires one per stage.
  const int64_t F = 16;
  Fixture fx(500, 4000, F);
  std::vector<float> out(fx.x.size());
  compiler::KernelArgs args;
  args.view = fx.view.in_view;
  args.in_degrees = fx.view.in_degrees;
  const float* inputs[1] = {fx.x.data()};
  args.inputs = inputs;
  args.self_features = fx.x.data();
  args.out = out.data();
  args.num_feats = F;
  args.producer_is_col = true;
  auto& stats = device::KernelStats::instance();
  uint64_t launches = 0;
  for (auto _ : state) {
    stats.reset();
    compiler::run_kernel(fx.spec, args);
    launches = stats.launches.load();
  }
  state.counters["launches_per_agg"] = static_cast<double>(launches);
}
BENCHMARK(BM_KernelLaunchCount);

// The TGCN cell's fused regions, traced exactly as compiler/fusion.cpp
// traces them: both gates' σ(xW + b), the candidate's tanh(xW + b) and the
// GRU-style state blend.
const compiler::fusion::FusedOp& tgcn_region(int64_t id) {
  namespace fu = compiler::fusion;
  using compiler::EwExpr;
  using compiler::EwTracer;
  static const fu::FusedOp bias_sigmoid("bias_sigmoid", [](EwTracer& t) {
    EwExpr x = t.in();
    EwExpr b = t.in_bias();
    return t.sigmoid(t.add_bias(x, b));
  });
  static const fu::FusedOp bias_tanh("bias_tanh", [](EwTracer& t) {
    EwExpr x = t.in();
    EwExpr b = t.in_bias();
    return t.tanh(t.add_bias(x, b));
  });
  static const fu::FusedOp gate_combine("gate_combine", [](EwTracer& t) {
    EwExpr z = t.in();
    EwExpr h = t.in();
    EwExpr c = t.in();
    return t.add(t.mul(z, h), t.mul(t.one_minus(z), c));
  });
  const fu::FusedOp* ops[] = {&bias_sigmoid, &bias_tanh, &gate_combine};
  return *ops[id];
}

// One fused region's interpreter pass (no autograd, no allocation) at a
// cell shape. Args: region (0 bias_sigmoid, 1 bias_tanh, 2 gate_combine),
// rows, cols, direction (0 forward with the saved values the backward
// reads, 1 the derived backward program). Inputs ~ N(0, 2). Run with
// STGRAPH_NUM_THREADS=1 for per-core rates.
void BM_FusedRegion(benchmark::State& state) {
  using compiler::EwInputKind;
  using compiler::EwProgram;
  const compiler::fusion::FusedOp& op = tgcn_region(state.range(0));
  const int64_t rows = state.range(1), cols = state.range(2);
  const bool backward = state.range(3) != 0;
  // The executed forward: outputs extended by the saved values, as
  // FusedOp::operator() runs it.
  EwProgram p = op.forward_program();
  for (int sid : op.backward_program().saved) p.outputs.push_back(sid);
  if (backward) p = op.backward_program().prog;

  Rng rng(0xF00D);
  std::vector<std::vector<float>> in(p.inputs.size());
  std::vector<const float*> ins;
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i].resize(static_cast<std::size_t>(
        p.inputs[i] == EwInputKind::kMat ? rows * cols : cols));
    for (float& v : in[i]) v = 2.0f * rng.normal();
    ins.push_back(in[i].data());
  }
  std::vector<std::vector<float>> out(
      p.outputs.size(), std::vector<float>(static_cast<std::size_t>(rows * cols)));
  std::vector<float*> outs;
  for (auto& o : out) outs.push_back(o.data());
  for (auto _ : state) {
    compiler::fusion::run_ew_program(p, ins.data(), rows, cols, outs.data());
    benchmark::DoNotOptimize(outs[0]);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
  state.SetLabel(op.name() + (backward ? " bwd" : " fwd"));
}
BENCHMARK(BM_FusedRegion)
    ->ArgNames({"region", "rows", "cols", "bwd"})
    ->ArgsProduct({{0, 1, 2}, {1068}, {32}, {0, 1}})
    ->ArgsProduct({{0, 1, 2}, {3880}, {8}, {0, 1}});

// ---- --json-out ablation ---------------------------------------------------

// Best-of-reps wall time of one launch (sheds scheduler noise).
template <typename Fn>
double time_best(Fn&& fn, int reps = 5) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

int run_json_ablation(const std::string& path) {
  // Pin to one lane before the pool spins up: the acceptance metric is
  // per-core kernel throughput, not parallel scaling.
  setenv("STGRAPH_NUM_THREADS", "1", 1);

  const uint32_t n = 100000;
  const int m = 800000;
  const int64_t F = 32;
  Fixture fx(n, m, F);
  std::vector<float> out(fx.x.size());
  compiler::KernelArgs args;
  args.view = fx.view.in_view;
  args.in_degrees = fx.view.in_degrees;
  const float* inputs[1] = {fx.x.data()};
  args.inputs = inputs;
  args.self_features = fx.x.data();
  args.out = out.data();
  args.num_feats = static_cast<uint32_t>(F);
  args.producer_is_col = true;

  // Warm both paths (page in the views/features).
  compiler::run_kernel_reference(fx.spec, args);
  compiler::run_kernel(fx.spec, args);

  const double scalar_s =
      time_best([&] { compiler::run_kernel_reference(fx.spec, args); });
  args.gcn_coef = nullptr;
  const double simd_inline_s =
      time_best([&] { compiler::run_kernel(fx.spec, args); });
  args.gcn_coef = fx.view.gcn_coef;
  const double simd_cached_s =
      time_best([&] { compiler::run_kernel(fx.spec, args); });

  // Unfused op-at-a-time pipeline on the same graph and features.
  baseline::CooSnapshot coo = baseline::make_coo(fx.n, fx.edges);
  Tensor xt = Tensor::from_vector(fx.x, {fx.n, F});
  double unfused_s;
  {
    NoGradGuard ng;
    unfused_s = time_best(
        [&] {
          Tensor coef = baseline::gcn_norm(coo);
          Tensor msg = baseline::gather_messages(xt, coo);
          msg = baseline::scale_messages(msg, coef);
          Tensor o = ops::add(baseline::scatter_add(msg, coo),
                              baseline::self_loop_contribution(xt, coo));
          benchmark::DoNotOptimize(o.data());
        },
        3);
  }

  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  f << "{\n"
    << "  \"bench\": \"micro_kernels\",\n"
    << "  \"device\": \"" << core::native_backend().device_info() << "\",\n"
    << "  \"simd\": \"" << simd::arch_name() << "\",\n"
    << "  \"threads\": 1,\n"
    << "  \"config\": {\"num_nodes\": " << n << ", \"num_edges\": " << m
    << ", \"feature_size\": " << F
    << ", \"program\": \"gcn_norm_sum_self\"},\n"
    << "  \"kernels\": {\n"
    << "    \"scalar_reference_s\": " << scalar_s << ",\n"
    << "    \"simd_inline_s\": " << simd_inline_s << ",\n"
    << "    \"simd_cached_s\": " << simd_cached_s << ",\n"
    << "    \"unfused_s\": " << unfused_s << "\n"
    << "  },\n"
    << "  \"speedups\": {\n"
    << "    \"simd_vs_scalar\": " << scalar_s / simd_inline_s << ",\n"
    << "    \"simd_cached_vs_scalar\": " << scalar_s / simd_cached_s << ",\n"
    << "    \"coef_cache_vs_inline\": " << simd_inline_s / simd_cached_s
    << ",\n"
    << "    \"fused_vs_unfused\": " << unfused_s / simd_cached_s << "\n"
    << "  },\n"
    << "  \"note\": \"scalar_reference_s is the pre-engine code path "
       "rebuilt in this binary, so it shares the huge-page allocator; "
       "against the pre-engine binary itself the engine measures ~3x "
       "(see docs/internals.md, kernel engine section)\"\n"
    << "}\n";
  f.close();
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "micro_kernels ablation (" << simd::arch_name()
            << ", 1 thread, n=" << n << " m=" << m << " F=" << F << "):\n"
            << "  scalar reference " << scalar_s * 1e3 << " ms\n"
            << "  simd inline      " << simd_inline_s * 1e3 << " ms  ("
            << scalar_s / simd_inline_s << "x)\n"
            << "  simd cached      " << simd_cached_s * 1e3 << " ms  ("
            << scalar_s / simd_cached_s << "x)\n"
            << "  unfused pipeline " << unfused_s * 1e3 << " ms\n"
            << "  wrote " << path << "\n";
  return 0;
}

// ---- --fusion-json-out ablation --------------------------------------------

// One model's fusion-on vs fusion-off epoch measurement.
struct FusionModelResult {
  std::string model, dataset;
  double on_s = 0.0, off_s = 0.0;
  double loss_on = 0.0, loss_off = 0.0;
  uint64_t tape_ops_on = 0, tape_ops_off = 0;
  uint64_t tape_bytes_on = 0, tape_bytes_off = 0;
  uint64_t fused_ops_on = 0, fused_bytes_on = 0;
  double speedup() const { return on_s > 0.0 ? off_s / on_s : 0.0; }
  /// The fusion parity contract, end to end: must hold, or the bench fails.
  bool loss_bitwise_equal() const {
    return std::memcmp(&loss_on, &loss_off, sizeof(double)) == 0;
  }
};

// Train `epochs` measured epochs fused vs with the unfused replay installed. The two
// trainers run interleaved (one on-epoch, one off-epoch, back to back) and
// each mode reports its BEST epoch — ambient machine load hits both modes
// alike and the min sheds the noise spikes.
template <typename MakeModel>
FusionModelResult measure_fusion_model(
    const char* model_name, const datasets::StaticTemporalDataset& ds,
    const MakeModel& make_model, uint32_t epochs) {
  FusionModelResult r;
  r.model = model_name;
  r.dataset = ds.name;
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 8;
  cfg.task = core::Task::kNodeRegression;

  // Identical seeds: the two runs train the same model, so their losses
  // must stay bitwise equal (the fusion parity contract, end to end).
  Rng rng_on(0xBEEF), rng_off(0xBEEF);
  StaticTemporalGraph graph_on(ds.num_nodes, ds.edges, ds.num_timestamps);
  StaticTemporalGraph graph_off(ds.num_nodes, ds.edges, ds.num_timestamps);
  auto model_on = make_model(rng_on);
  auto model_off = make_model(rng_off);
  core::STGraphTrainer tr_on(graph_on, *model_on, ds.signal, cfg);
  core::STGraphTrainer tr_off(graph_off, *model_off, ds.signal, cfg);

  auto on_epoch = [&] { return tr_on.train_epoch(); };
  auto off_epoch = [&] {
    compiler::fusion::ReplayScope replay;
    return tr_off.train_epoch();
  };
  on_epoch();  // warmup
  off_epoch();
  r.on_s = r.off_s = 1e100;
  for (uint32_t e = 0; e < epochs; ++e) {
    const core::EpochStats on = on_epoch();
    const core::EpochStats off = off_epoch();
    r.on_s = std::min(r.on_s, on.seconds);
    r.off_s = std::min(r.off_s, off.seconds);
    r.loss_on = on.loss;
    r.loss_off = off.loss;
    r.tape_ops_on = on.tape_op_count;
    r.tape_bytes_on = on.tape_bytes;
    r.fused_ops_on = on.fused_op_count;
    r.fused_bytes_on = on.fused_bytes;
    r.tape_ops_off = off.tape_op_count;
    r.tape_bytes_off = off.tape_bytes;
  }
  return r;
}

int run_fusion_ablation(const std::string& path) {
  // ---- fused-epilogue micro: bias grafted onto the aggregation writeback
  // vs a second read-modify-write pass over the output. Bitwise equality is
  // part of the contract (the add sees the same two floats either way).
  const int64_t F = 32;
  Fixture fx(50000, 400000, F);
  Rng brng(23);
  std::vector<float> bias(F);
  for (auto& v : bias) v = brng.normal();
  std::vector<float> out_fused(fx.x.size()), out_unfused(fx.x.size());
  compiler::KernelArgs args;
  args.view = fx.view.in_view;
  args.in_degrees = fx.view.in_degrees;
  args.gcn_coef = fx.view.gcn_coef;
  const float* inputs[1] = {fx.x.data()};
  args.inputs = inputs;
  args.self_features = fx.x.data();
  args.num_feats = static_cast<uint32_t>(F);
  args.producer_is_col = true;

  auto run_unfused = [&] {
    args.out = out_unfused.data();
    args.epilogue_bias = nullptr;
    compiler::run_kernel(fx.spec, args);
    float* o = out_unfused.data();
    for (uint32_t v = 0; v < fx.n; ++v)
      for (int64_t f = 0; f < F; ++f) o[v * F + f] += bias[f];
  };
  auto run_fused = [&] {
    args.out = out_fused.data();
    args.epilogue_bias = bias.data();
    compiler::run_kernel(fx.spec, args);
  };
  run_unfused();  // warm
  run_fused();
  const bool epilogue_bitwise_equal =
      std::memcmp(out_fused.data(), out_unfused.data(),
                  out_fused.size() * sizeof(float)) == 0;
  const double epi_unfused_s = time_best(run_unfused);
  const double epi_fused_s = time_best(run_fused);

  // ---- end-to-end model epochs, fusion on vs off ---------------------------
  datasets::StaticLoadOptions so;
  so.scale = 0.25;
  so.num_timestamps = 24;
  const datasets::StaticTemporalDataset wiki = datasets::load_wikimath(so);
  const datasets::StaticTemporalDataset pox = datasets::load_chickenpox(so);
  const uint32_t epochs = 3;
  const FusionModelResult tgcn = measure_fusion_model(
      "TGCN", wiki,
      [&](Rng& rng) {
        return std::make_unique<nn::TGCNRegressor>(wiki.signal.feature_size(),
                                                   16, rng);
      },
      epochs);
  const FusionModelResult gru = measure_fusion_model(
      "GConvGRU", pox,
      [&](Rng& rng) {
        return std::make_unique<nn::GConvGRURegressor>(
            pox.signal.feature_size(), 16, 2, rng);
      },
      epochs);

  std::ofstream f(path);
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  auto model_json = [](const FusionModelResult& r) {
    std::ostringstream os;
    os << "    {\"model\": \"" << r.model << "\", \"dataset\": \"" << r.dataset
       << "\", \"fusion_on_s\": " << r.on_s
       << ", \"fusion_off_s\": " << r.off_s
       << ", \"speedup\": " << r.speedup()
       << ", \"loss_bitwise_equal\": "
       << (r.loss_bitwise_equal() ? "true" : "false")
       << ", \"tape_ops_on\": " << r.tape_ops_on
       << ", \"tape_ops_off\": " << r.tape_ops_off
       << ", \"tape_bytes_on\": " << r.tape_bytes_on
       << ", \"tape_bytes_off\": " << r.tape_bytes_off
       << ", \"fused_ops_on\": " << r.fused_ops_on
       << ", \"fused_bytes_on\": " << r.fused_bytes_on << "}";
    return os.str();
  };
  f << "{\n"
    << "  \"bench\": \"fusion\",\n"
    << "  \"device\": \"" << core::native_backend().device_info() << "\",\n"
    << "  \"simd\": \"" << simd::arch_name() << "\",\n"
    << "  \"epilogue\": {\"num_nodes\": " << fx.n
    << ", \"feature_size\": " << F << ", \"fused_s\": " << epi_fused_s
    << ", \"unfused_s\": " << epi_unfused_s
    << ", \"speedup\": " << epi_unfused_s / epi_fused_s
    << ", \"bitwise_equal\": " << (epilogue_bitwise_equal ? "true" : "false")
    << "},\n"
    << "  \"models\": [\n"
    << model_json(tgcn) << ",\n"
    << model_json(gru) << "\n  ]\n}\n";
  f.close();
  if (!f) {
    std::cerr << "cannot write " << path << "\n";
    return 1;
  }
  std::cout << "fusion ablation:\n"
            << "  epilogue fused " << epi_fused_s * 1e3 << " ms vs unfused "
            << epi_unfused_s * 1e3 << " ms ("
            << epi_unfused_s / epi_fused_s
            << "x), bitwise equal: " << epilogue_bitwise_equal << "\n"
            << "  TGCN epoch: on " << tgcn.on_s * 1e3 << " ms, off "
            << tgcn.off_s * 1e3 << " ms (" << tgcn.speedup()
            << "x), tape ops " << tgcn.tape_ops_off << " -> "
            << tgcn.tape_ops_on << ", loss bitwise equal: "
            << tgcn.loss_bitwise_equal() << "\n"
            << "  GConvGRU epoch: on " << gru.on_s * 1e3 << " ms, off "
            << gru.off_s * 1e3 << " ms (" << gru.speedup()
            << "x), tape ops " << gru.tape_ops_off << " -> "
            << gru.tape_ops_on << ", loss bitwise equal: "
            << gru.loss_bitwise_equal() << "\n"
            << "  wrote " << path << "\n";
  return (epilogue_bitwise_equal && tgcn.loss_bitwise_equal() &&
          gru.loss_bitwise_equal())
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_out, fusion_json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
    if (arg.rfind("--fusion-json-out=", 0) == 0)
      fusion_json_out = arg.substr(18);
  }
  if (!fusion_json_out.empty()) {
    const int rc = run_fusion_ablation(fusion_json_out);
    if (rc != 0 || json_out.empty()) return rc;
  }
  if (!json_out.empty()) return run_json_ablation(json_out);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
