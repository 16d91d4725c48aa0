#include "common.hpp"

#include <cstring>
#include <functional>
#include <iostream>

#include "baseline/trainer.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/naive_graph.hpp"
#include "graph/static_graph.hpp"
#include "runtime/memory_tracker.hpp"
#include "util/rng.hpp"

namespace stgraph::bench {

BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(std::strlen(prefix));
      return std::nullopt;
    };
    if (auto v = value("--scale-static=")) opts.scale_static = std::stod(*v);
    else if (auto v2 = value("--scale-dynamic=")) opts.scale_dynamic = std::stod(*v2);
    else if (auto v3 = value("--timestamps=")) opts.timestamps = std::stoul(*v3);
    else if (auto v4 = value("--epochs=")) opts.epochs = std::stoul(*v4);
    else if (auto v5 = value("--warmup=")) opts.warmup_epochs = std::stoul(*v5);
    else if (auto v6 = value("--seq-len=")) opts.sequence_length = std::stoul(*v6);
    else if (auto v7 = value("--csv-dir=")) opts.csv_dir = *v7;
    else if (arg == "--full") {
      opts.full = true;
      opts.scale_static = 1.0;
      opts.scale_dynamic = 0.2;
      opts.timestamps = 100;
      opts.epochs = 5;
    } else if (arg == "--help") {
      std::cout << "options: --scale-static=F --scale-dynamic=F "
                   "--timestamps=N --epochs=N --warmup=N --seq-len=N "
                   "--csv-dir=DIR --full\n";
      std::exit(0);
    }
  }
  return opts;
}

const char* system_name(System s) {
  switch (s) {
    case System::kStgraphStatic: return "STGraph";
    case System::kStgraphNaive: return "STGraph-Naive";
    case System::kStgraphGpma: return "STGraph-GPMA";
    case System::kPygt: return "PyG-T";
  }
  return "?";
}

namespace {
constexpr uint64_t kModelSeed = 0xBEEF;

RunResult measure_epochs(const std::function<core::EpochStats()>& epoch_fn,
                         const BenchOptions& opts) {
  for (uint32_t w = 0; w < opts.warmup_epochs; ++w) epoch_fn();
  RunResult r;
  for (uint32_t e = 0; e < opts.epochs; ++e) {
    const core::EpochStats s = epoch_fn();
    r.per_epoch_seconds += s.seconds;
    r.graph_update_seconds += s.graph_update_seconds;
    r.gnn_seconds += s.gnn_seconds;
    r.position_seconds += s.position_seconds;
    r.view_seconds += s.view_seconds;
    r.forward_seconds += s.forward_seconds;
    r.backward_seconds += s.backward_seconds;
    r.stall_seconds += s.stall_seconds;
    r.prefetch_hits += s.prefetch_hits;
    r.prefetch_misses += s.prefetch_misses;
    r.tape_op_count += s.tape_op_count;
    r.tape_bytes += s.tape_bytes;
    r.fused_op_count += s.fused_op_count;
    r.fused_bytes += s.fused_bytes;
    r.final_loss = s.loss;
  }
  r.per_epoch_seconds /= opts.epochs;
  r.graph_update_seconds /= opts.epochs;
  r.gnn_seconds /= opts.epochs;
  r.position_seconds /= opts.epochs;
  r.view_seconds /= opts.epochs;
  r.forward_seconds /= opts.epochs;
  r.backward_seconds /= opts.epochs;
  r.stall_seconds /= opts.epochs;
  r.tape_op_count /= opts.epochs;
  r.tape_bytes /= opts.epochs;
  r.fused_op_count /= opts.epochs;
  r.fused_bytes /= opts.epochs;
  return r;
}
}  // namespace

RunResult run_static(const datasets::StaticTemporalDataset& ds,
                     const datasets::TemporalSignal& signal, System system,
                     const BenchOptions& opts, int64_t hidden) {
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = opts.sequence_length;
  cfg.task = core::Task::kNodeRegression;

  Rng rng(kModelSeed);
  RunResult result;
  PeakMemoryRegion region;  // graph + model constructed inside the region

  if (system == System::kPygt) {
    baseline::PygtTemporalGraph graph(ds.num_nodes, ds.edges,
                                      ds.num_timestamps);
    baseline::PygTemporalModel model(signal.feature_size(), hidden, rng,
                                     /*head=*/true);
    baseline::PygtTrainer trainer(graph, model, signal, cfg);
    result = measure_epochs([&] { return trainer.train_epoch(); }, opts);
  } else {
    StaticTemporalGraph graph(ds.num_nodes, ds.edges, ds.num_timestamps);
    nn::TGCNRegressor model(signal.feature_size(), hidden, rng);
    core::STGraphTrainer trainer(graph, model, signal, cfg);
    result = measure_epochs([&] { return trainer.train_epoch(); }, opts);
  }
  result.peak_device_mib = region.peak() / (1024.0 * 1024.0);
  return result;
}

RunResult run_dtdg(const DtdgEvents& events,
                   const datasets::TemporalSignal& signal, System system,
                   const BenchOptions& opts, int64_t hidden) {
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = opts.sequence_length;
  cfg.task = core::Task::kLinkPrediction;

  Rng rng(kModelSeed);
  RunResult result;
  PeakMemoryRegion region;

  if (system == System::kPygt) {
    baseline::PygtTemporalGraph graph(events);
    baseline::PygTemporalModel model(signal.feature_size(), hidden, rng,
                                     /*head=*/false);
    baseline::PygtTrainer trainer(graph, model, signal, cfg);
    result = measure_epochs([&] { return trainer.train_epoch(); }, opts);
  } else if (system == System::kStgraphNaive) {
    NaiveGraph graph(events);
    nn::TGCNEncoder model(signal.feature_size(), hidden, rng);
    core::STGraphTrainer trainer(graph, model, signal, cfg);
    result = measure_epochs([&] { return trainer.train_epoch(); }, opts);
  } else {
    GpmaGraph graph(events);
    nn::TGCNEncoder model(signal.feature_size(), hidden, rng);
    core::STGraphTrainer trainer(graph, model, signal, cfg);
    result = measure_epochs([&] { return trainer.train_epoch(); }, opts);
  }
  result.peak_device_mib = region.peak() / (1024.0 * 1024.0);
  return result;
}

void emit(const std::string& bench_name, const CsvWriter& csv,
          const BenchOptions& opts) {
  std::cout << "== " << bench_name << " ==\n" << csv.to_table() << "\n";
  if (!opts.csv_dir.empty()) {
    const std::string path = opts.csv_dir + "/" + bench_name + ".csv";
    if (csv.save(path)) {
      std::cout << "(wrote " << path << ")\n";
    } else {
      std::cerr << "failed to write " << path << "\n";
    }
  }
}

std::vector<int64_t> feature_sweep(const BenchOptions& opts) {
  if (opts.full) return {8, 16, 32, 64, 128, 256};
  return {4, 8, 16, 32, 64};
}

}  // namespace stgraph::bench
