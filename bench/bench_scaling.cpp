// Multi-core scaling sweep: end-to-end GPMA training epoch time across
// thread counts on the Fig. 9 DTDG datasets, emitted as BENCH_scaling.json.
// Speedups are against the 1-thread point.
//
// The ThreadPool freezes its lane count at first use, so every thread
// count runs in a fresh subprocess: the parent re-execs this binary with
// --child and the STGRAPH_NUM_THREADS environment of that point, and
// aggregates the one-line JSON results.
//
// The sweep doubles as a parity audit: the final-epoch loss is compared
// bit-for-bit (hexfloat) across every thread count of a dataset — a lane
// count that changes a single ulp fails the bench.
//
//   --max-threads=N   cap the thread sweep (default: min(8, cores))
//   --hidden=N        model width (default 32; compute-heavy on purpose so
//                     the sweep exposes kernel + pipeline scaling)
//   --features=N      signal feature size (default 16)
//   --json-out=PATH   default BENCH_scaling.json; empty to skip. An
//                     unwritable path fails the run.
//   --datasets=K      sweep only the first K Fig. 9 datasets (default all)
// plus the common options (--scale-dynamic=, --epochs=, --warmup=,
// --seq-len=).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gpma/gpma_graph.hpp"
#include "nn/models.hpp"
#include "runtime/parallel.hpp"
#include "util/rng.hpp"

using namespace stgraph;
using namespace stgraph::bench;

namespace {

constexpr uint64_t kModelSeed = 0xBEEF;

struct ScalingArgs {
  bool child = false;
  std::string dataset;
  uint32_t max_threads = 0;
  int64_t hidden = 32;
  int64_t features = 16;
  uint32_t datasets = 0;  // 0 = all
  double assert_speedup = 0.0;  // exit nonzero if best speedup falls below
  std::string json_out = "BENCH_scaling.json";
};

ScalingArgs parse_scaling(int argc, char** argv) {
  ScalingArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      if (arg.rfind(prefix, 0) == 0) return arg.c_str() + std::strlen(prefix);
      return nullptr;
    };
    if (arg == "--child") a.child = true;
    else if (const char* v = value("--dataset=")) a.dataset = v;
    else if (const char* v2 = value("--max-threads=")) a.max_threads = std::stoul(v2);
    else if (const char* v3 = value("--hidden=")) a.hidden = std::stol(v3);
    else if (const char* v4 = value("--features=")) a.features = std::stol(v4);
    else if (const char* v5 = value("--datasets=")) a.datasets = std::stoul(v5);
    else if (const char* v6 = value("--json-out=")) a.json_out = v6;
    else if (const char* v7 = value("--assert-speedup=")) a.assert_speedup = std::stod(v7);
  }
  return a;
}

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Child: run one thread count and print a single machine-readable line.
// The thread count arrives via the environment set by the parent.
// ---------------------------------------------------------------------------

int run_child(const ScalingArgs& sa, const BenchOptions& opts) {
  datasets::DynamicLoadOptions dyo;
  dyo.scale = opts.scale_dynamic;
  dyo.feature_size = sa.features;

  datasets::DynamicDataset picked;
  bool found = false;
  for (auto& ds : datasets::load_all_dynamic(dyo)) {
    if (ds.name == sa.dataset) {
      picked = std::move(ds);
      found = true;
      break;
    }
  }
  if (!found) {
    std::cerr << "unknown dataset: " << sa.dataset << "\n";
    return 1;
  }

  const DtdgEvents events = datasets::make_dtdg(picked, 5.0);
  const datasets::TemporalSignal signal =
      datasets::make_dynamic_signal(events, dyo);

  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = opts.sequence_length;
  cfg.task = core::Task::kLinkPrediction;

  Rng rng(kModelSeed);
  GpmaGraph graph(events);
  nn::TGCNEncoder model(signal.feature_size(), sa.hidden, rng);
  core::STGraphTrainer trainer(graph, model, signal, cfg);

  for (uint32_t w = 0; w < opts.warmup_epochs; ++w) trainer.train_epoch();
  core::EpochStats sum;
  for (uint32_t e = 0; e < opts.epochs; ++e) {
    const core::EpochStats s = trainer.train_epoch();
    sum.seconds += s.seconds;
    sum.graph_update_seconds += s.graph_update_seconds;
    sum.gnn_seconds += s.gnn_seconds;
    sum.position_seconds += s.position_seconds;
    sum.view_seconds += s.view_seconds;
    sum.forward_seconds += s.forward_seconds;
    sum.backward_seconds += s.backward_seconds;
    sum.stall_seconds += s.stall_seconds;
    sum.prefetch_hits += s.prefetch_hits;
    sum.prefetch_misses += s.prefetch_misses;
    sum.loss = s.loss;
  }
  const double inv = 1.0 / std::max(1u, opts.epochs);

  std::cout << "SCALING {\"dataset\": \"" << sa.dataset
            << "\", \"threads\": " << device::lane_count()
            << ", \"epoch_s\": " << sum.seconds * inv
            << ", \"loss_hex\": \"" << hex_double(sum.loss)
            << "\", \"update_s\": " << sum.graph_update_seconds * inv
            << ", \"gnn_s\": " << sum.gnn_seconds * inv
            << ", \"position_s\": " << sum.position_seconds * inv
            << ", \"view_s\": " << sum.view_seconds * inv
            << ", \"forward_s\": " << sum.forward_seconds * inv
            << ", \"backward_s\": " << sum.backward_seconds * inv
            << ", \"stall_s\": " << sum.stall_seconds * inv
            << ", \"pf_hits\": " << sum.prefetch_hits
            << ", \"pf_misses\": " << sum.prefetch_misses << "}\n";
  return 0;
}

// ---------------------------------------------------------------------------
// Parent: sweep the grid via subprocesses and aggregate.
// ---------------------------------------------------------------------------

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

struct Point {
  uint32_t threads = 1;
  std::string raw;  // child JSON line (without the SCALING prefix)

  double num(const char* key) const {
    const std::string pat = std::string("\"") + key + "\": ";
    const std::size_t at = raw.find(pat);
    if (at == std::string::npos) return 0.0;
    return std::strtod(raw.c_str() + at + pat.size(), nullptr);
  }
  std::string str(const char* key) const {
    const std::string pat = std::string("\"") + key + "\": \"";
    const std::size_t at = raw.find(pat);
    if (at == std::string::npos) return "";
    const std::size_t b = at + pat.size();
    return raw.substr(b, raw.find('"', b) - b);
  }
};

bool run_point(const std::string& exe, const std::string& dataset,
               const ScalingArgs& sa, const BenchOptions& opts, Point& p) {
  std::ostringstream cmd;
  cmd << "STGRAPH_NUM_THREADS=" << p.threads << " '" << exe << "' --child --dataset='" << dataset << "'"
      << " --scale-dynamic=" << opts.scale_dynamic
      << " --epochs=" << opts.epochs << " --warmup=" << opts.warmup_epochs
      << " --seq-len=" << opts.sequence_length << " --hidden=" << sa.hidden
      << " --features=" << sa.features;
  FILE* pipe = ::popen(cmd.str().c_str(), "r");
  if (!pipe) return false;
  std::string line, out;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe)) {
    line = buf;
    if (line.rfind("SCALING ", 0) == 0) out = line.substr(8);
  }
  const int rc = ::pclose(pipe);
  if (rc != 0 || out.empty()) {
    std::cerr << "grid point failed (threads=" << p.threads << "): rc=" << rc
              << "\n";
    return false;
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  p.raw = out;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_options(argc, argv);
  const ScalingArgs sa = parse_scaling(argc, argv);
  if (sa.child) return run_child(sa, opts);

  const std::string exe = self_exe(argv[0]);
  uint32_t max_threads = sa.max_threads;
  if (max_threads == 0) {
    // Always sweep to at least 4 lanes so the grid shape is stable across
    // hosts; on machines with fewer cores the extra points honestly report
    // oversubscription (expect ~1x there, not a parallel win).
    max_threads = std::min(8u, std::max(4u, std::thread::hardware_concurrency()));
  }

  // Thread ladder 1,2,4,...; the first point (1 thread) is the reference.
  std::vector<Point> grid;
  for (uint32_t n = 1; n <= max_threads; n *= 2) grid.push_back({n, {}});

  datasets::DynamicLoadOptions dyo;
  dyo.scale = opts.scale_dynamic;
  std::vector<std::string> names;
  for (const auto& ds : datasets::load_all_dynamic(dyo)) {
    names.push_back(ds.name);
    if (sa.datasets > 0 && names.size() >= sa.datasets) break;
  }

  CsvWriter csv({"dataset", "threads", "epoch_s", "speedup",
                 "update_s", "gnn_s", "stall_s", "pf_hits", "pf_misses",
                 "parity"});
  std::ostringstream rows_json;
  bool first_row = true;
  bool parity_ok = true;
  double best_speedup = 0.0;
  double best_speedup_4t = 0.0;
  std::string best_dataset_4t;

  for (const std::string& name : names) {
    double base_epoch_s = 0.0;
    std::string base_loss;
    for (Point point : grid) {
      if (!run_point(exe, name, sa, opts, point)) return 1;
      const double epoch_s = point.num("epoch_s");
      const std::string loss = point.str("loss_hex");
      if (point.threads == 1) {
        base_epoch_s = epoch_s;
        base_loss = loss;
      }
      const bool parity = loss == base_loss;
      parity_ok = parity_ok && parity;
      const double speedup = epoch_s > 0.0 ? base_epoch_s / epoch_s : 0.0;
      // The 1-thread reference scores exactly 1x by construction; only the
      // multi-lane points count toward the --assert-speedup floor.
      if (point.threads > 1) best_speedup = std::max(best_speedup, speedup);
      if (point.threads == 4 && speedup > best_speedup_4t) {
        best_speedup_4t = speedup;
        best_dataset_4t = name;
      }
      csv.add_row({name, std::to_string(point.threads),
                   CsvWriter::fmt(epoch_s, 4),
                   CsvWriter::fmt(speedup, 2),
                   CsvWriter::fmt(point.num("update_s"), 4),
                   CsvWriter::fmt(point.num("gnn_s"), 4),
                   CsvWriter::fmt(point.num("stall_s"), 4),
                   std::to_string(static_cast<uint64_t>(point.num("pf_hits"))),
                   std::to_string(
                       static_cast<uint64_t>(point.num("pf_misses"))),
                   parity ? "ok" : "DIVERGED"});
      rows_json << (first_row ? "" : ",") << "\n    {"
                << point.raw.substr(1, point.raw.rfind('}') - 1)
                << ", \"requested_threads\": " << point.threads
                << ", \"speedup\": " << speedup
                << ", \"parity\": " << (parity ? "true" : "false") << "}";
      first_row = false;
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";
  emit("scaling_threads", csv, opts);

  if (!sa.json_out.empty()) {
    std::ofstream f(sa.json_out);
    f << "{\n  \"bench\": \"scaling_threads\",\n  \"rows\": ["
      << rows_json.str() << "\n  ],\n  \"parity_ok\": "
      << (parity_ok ? "true" : "false")
      << ",\n  \"best_speedup\": " << best_speedup
      << ",\n  \"best_speedup_at_4_threads\": " << best_speedup_4t
      << ",\n  \"best_dataset_at_4_threads\": \"" << best_dataset_4t
      << "\"\n}\n";
    f.close();
    if (!f) {
      std::cerr << "cannot write " << sa.json_out << "\n";
      return 1;
    }
    std::cout << "(wrote " << sa.json_out << ", best 4-thread speedup "
              << CsvWriter::fmt(best_speedup_4t, 2) << "x on "
              << best_dataset_4t << ")\n";
  }
  if (!parity_ok) {
    std::cerr << "PARITY FAILURE: a multi-lane point diverged from the "
                 "1-thread reference\n";
    return 1;
  }
  if (sa.assert_speedup > 0.0 && best_speedup < sa.assert_speedup) {
    std::cerr << "SPEEDUP FAILURE: best " << best_speedup << "x < required "
              << sa.assert_speedup << "x\n";
    return 1;
  }
  return 0;
}
