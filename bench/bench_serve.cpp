// Serving smoke benchmark (`run_all.sh serve-smoke`): checkpoint a tiny
// link-prediction model, stand up an in-process serve::Server, then hammer
// it with concurrent predict() clients while the main thread streams delta
// batches through ingest(). Emits the server's stats report (p50/p99
// latency, batch occupancy, delta-apply throughput) as BENCH_serve.json.
//
//   ./build/bench/bench_serve --out=BENCH_serve.json --requests=1000 --deltas=50 --threads=4
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

using namespace stgraph;

int main(int argc, char** argv) {
  std::string out = "BENCH_serve.json";
  uint64_t total_requests = 1000;
  uint32_t num_deltas = 50;
  uint32_t num_threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0) return arg.substr(std::string(prefix).size());
      return std::nullopt;
    };
    if (auto v = value("--out=")) out = *v;
    else if (auto v = value("--requests=")) total_requests = std::stoull(*v);
    else if (auto v = value("--deltas=")) num_deltas = std::stoul(*v);
    else if (auto v = value("--threads=")) num_threads = std::stoul(*v);
    else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  // ---- tiny model + checkpoint -------------------------------------------
  datasets::DynamicLoadOptions opts;
  opts.scale = 0.02;
  opts.feature_size = 8;
  opts.link_samples_per_step = 64;
  datasets::DynamicDataset ds = datasets::load_sx_mathoverflow(opts);
  const DtdgEvents events = datasets::make_dtdg(ds, /*percent_change=*/2.0);
  const datasets::TemporalSignal signal =
      datasets::make_dynamic_signal(events, opts);
  if (num_deltas > events.num_timestamps() - 1) {
    num_deltas = events.num_timestamps() - 1;
    std::cerr << "clamping --deltas to the " << num_deltas
              << " available snapshot transitions\n";
  }

  const char* ckpt = "/tmp/stgraph_bench_serve.stgt";
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 8;
  cfg.lr = 2e-2f;
  cfg.task = core::Task::kLinkPrediction;
  {
    GpmaGraph train_graph(events);
    Rng rng(7);
    nn::TGCNEncoder model(opts.feature_size, 16, rng);
    core::STGraphTrainer trainer(train_graph, model, signal, cfg);
    trainer.train();
    trainer.save_checkpoint(ckpt);
  }

  // ---- serve: concurrent clients + streaming ingest ----------------------
  GpmaGraph graph(DtdgEvents{ds.num_nodes, events.base_edges, {}});
  Rng rng(7);
  nn::TGCNEncoder model(opts.feature_size, 16, rng);
  serve::ServeConfig scfg;
  scfg.max_batch = 16;
  scfg.queue_capacity = 4096;
  serve::Server server(graph, model, scfg);
  server.load(ckpt);
  server.start(signal.features[0]);

  std::atomic<uint64_t> issued{0};
  std::atomic<uint64_t> errors{0};
  auto client = [&](uint32_t seed) {
    Rng crng(1000 + seed);
    while (issued.fetch_add(1, std::memory_order_relaxed) < total_requests) {
      std::vector<uint32_t> nodes;
      if (crng.next_below(4) != 0) {  // 3/4 of requests ask for a subset
        const uint32_t k = 1 + static_cast<uint32_t>(crng.next_below(8));
        for (uint32_t j = 0; j < k; ++j)
          nodes.push_back(static_cast<uint32_t>(crng.next_below(ds.num_nodes)));
      }
      try {
        server.predict(std::move(nodes));
      } catch (const StgError&) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> clients;
  clients.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) clients.emplace_back(client, i);

  for (uint32_t t = 1; t <= num_deltas; ++t)
    server.ingest(events.deltas[t - 1], signal.features[t]);

  for (auto& th : clients) th.join();
  const serve::ReadView view = server.read_view();
  server.stop();
  std::remove(ckpt);

  const serve::StatsReport report = server.stats();
  std::ofstream f(out);
  f << report.to_json();
  f.close();

  std::cout << "served " << report.requests << " requests ("
            << report.failed + errors.load() << " failed/rejected) across "
            << report.batches << " batches; " << report.deltas_applied
            << " deltas → t=" << view.time << " v" << view.version << "\n"
            << "p50 " << report.p50_us << " us, p99 " << report.p99_us
            << " us, ingest " << report.delta_edges_per_sec << " edges/s\n"
            << "wrote " << out << "\n";
  return report.requests > 0 ? 0 : 1;
}
