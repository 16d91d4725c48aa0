// Micro/ablation benches for the GPMA design choices:
//   * PMA batch update vs rebuilding CSR snapshots from scratch,
//   * Algorithm-3 atomic-scatter reverse CSR vs sort-based reversal,
//   * Algorithm-2 snapshot cache vs cold delta replay,
//   * PMA insert throughput across batch sizes.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "gpma/gpma_graph.hpp"
#include "gpma/pma.hpp"
#include "graph/naive_graph.hpp"
#include "runtime/sort.hpp"
#include "util/rng.hpp"

namespace {
using namespace stgraph;

EdgeList make_stream(uint32_t nodes, std::size_t events, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  for (std::size_t i = 0; i < events; ++i) {
    uint32_t s = static_cast<uint32_t>(rng.next_below(nodes));
    uint32_t d = static_cast<uint32_t>(rng.next_below(nodes));
    if (s == d) d = (d + 1) % nodes;
    stream.emplace_back(s, d);
  }
  return stream;
}

void BM_PmaBatchInsert(benchmark::State& state) {
  const std::size_t batch = state.range(0);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    Pma pma;
    std::vector<std::vector<uint64_t>> batches;
    for (int b = 0; b < 20; ++b) {
      std::vector<uint64_t> keys(batch);
      for (auto& k : keys) k = rng.next_u64() >> 20;
      batches.push_back(std::move(keys));
    }
    state.ResumeTiming();
    for (auto& keys : batches) pma.insert_batch(std::move(keys));
    benchmark::DoNotOptimize(pma.size());
  }
  state.SetItemsProcessed(state.iterations() * 20 * batch);
}
BENCHMARK(BM_PmaBatchInsert)->Arg(64)->Arg(512)->Arg(4096);

void BM_GpmaUpdateVsCsrRebuild(benchmark::State& state) {
  // Apply one 5% delta: either a PMA batch update (GPMAGraph path) or a
  // full CSR snapshot rebuild (what NaiveGraph pre-computes per snapshot).
  const bool use_pma = state.range(0) != 0;
  DtdgEvents ev = window_edge_stream(2000, make_stream(2000, 40000, 5), 5.0);
  if (use_pma) {
    GpmaGraph g(ev);
    uint32_t t = 0;
    for (auto _ : state) {
      t = (t + 1) % g.num_timestamps();
      g.get_graph(t);
    }
  } else {
    for (auto _ : state) {
      static uint32_t t = 0;
      t = (t + 1) % ev.num_timestamps();
      const EdgeList edges = ev.snapshot_edges(t);
      std::vector<CooEdge> coo;
      uint32_t eid = 0;
      coo.reserve(edges.size());
      for (const auto& [s, d] : edges) coo.push_back({s, d, eid++});
      GraphSnapshot snap = build_snapshot(ev.num_nodes, coo);
      benchmark::DoNotOptimize(snap.num_edges);
    }
  }
  state.SetLabel(use_pma ? "pma_batch_update" : "csr_rebuild");
}
BENCHMARK(BM_GpmaUpdateVsCsrRebuild)->Arg(1)->Arg(0);

void BM_ReverseAlgorithm3(benchmark::State& state) {
  DtdgEvents ev = window_edge_stream(2000, make_stream(2000, 40000, 7), 10.0);
  GpmaGraph g(ev);
  SnapshotView v = g.get_graph(0);
  // Re-run Algorithm 3 against the gapped arrays the graph exposes.
  auto upload = [](const uint32_t* host, std::size_t n) {
    DeviceBuffer<uint32_t> b(n, MemCategory::kGraph);
    std::copy(host, host + n, b.data());
    return b;
  };
  DeviceBuffer<uint32_t> ro = upload(v.out_view.row_offset, v.num_nodes + 1);
  const std::size_t cap = ro[v.num_nodes];
  DeviceBuffer<uint32_t> col = upload(v.out_view.col_indices, cap);
  DeviceBuffer<uint32_t> eids = upload(v.out_view.eids, cap);
  DeviceBuffer<uint32_t> in_deg = upload(v.in_degrees, v.num_nodes);
  for (auto _ : state) {
    DeviceBuffer<uint32_t> r1, r2, r3;
    reverse_gpma(v.num_nodes, ro, col, eids, in_deg, v.num_edges, r1, r2, r3);
    benchmark::DoNotOptimize(r1.data());
  }
  state.SetItemsProcessed(state.iterations() * v.num_edges);
}
BENCHMARK(BM_ReverseAlgorithm3);

void BM_ReverseBySort(benchmark::State& state) {
  // Alternative reversal: sort (dst, src) pairs — the classic approach
  // Algorithm 3's scatter avoids.
  DtdgEvents ev = window_edge_stream(2000, make_stream(2000, 40000, 7), 10.0);
  const EdgeList edges = ev.snapshot_edges(0);
  for (auto _ : state) {
    std::vector<uint64_t> keys;
    std::vector<uint64_t> payload;
    keys.reserve(edges.size());
    payload.reserve(edges.size());
    uint64_t eid = 0;
    for (const auto& [s, d] : edges) {
      keys.push_back(make_edge_key(d, s));
      payload.push_back(eid++);
    }
    device::radix_sort_pairs(keys, payload);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_ReverseBySort);

void BM_PositionCacheAblation(benchmark::State& state) {
  // Algorithm 2's checkpoints: two training sequences per iteration (so
  // every iteration but the first starts with a roll back to t = 0), with
  // the turn and origin checkpoints on vs off.
  const bool cache = state.range(0) != 0;
  DtdgEvents ev = window_edge_stream(1000, make_stream(1000, 30000, 11), 2.0);
  GpmaGraph g(ev);
  g.set_cache_enabled(cache);
  const uint32_t seq = std::min(8u, g.num_timestamps() / 2);
  for (auto _ : state) {
    for (uint32_t t = 0; t < seq; ++t) g.get_graph(t);
    for (uint32_t t = seq; t-- > 0;) g.get_backward_graph(t);
    for (uint32_t t = seq; t < 2 * seq; ++t) g.get_graph(t);
    for (uint32_t t = 2 * seq; t-- > seq;) g.get_backward_graph(t);
    benchmark::DoNotOptimize(g.current_timestamp());
  }
  state.SetLabel(cache ? "with_cache" : "no_cache");
  state.counters["delta_replays"] = benchmark::Counter(
      static_cast<double>(g.delta_replays()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_PositionCacheAblation)->Arg(1)->Arg(0);

}  // namespace

BENCHMARK_MAIN();
