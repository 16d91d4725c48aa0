// GPMAGraph tests: Algorithm 3 (reverse CSR from gapped arrays) against
// the dense reference, Algorithm 2 positioning/checkpoints, and cross-format
// equivalence with NaiveGraph at every timestamp.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "gpma/gpma_graph.hpp"
#include "graph/naive_graph.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

EdgeList random_stream(uint32_t nodes, std::size_t events, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  for (std::size_t i = 0; i < events; ++i)
    stream.emplace_back(static_cast<uint32_t>(rng.next_below(nodes)),
                        static_cast<uint32_t>(rng.next_below(nodes)));
  return stream;
}

// Decode a (possibly gapped) view into (row, col, eid) triples.
std::set<std::tuple<uint32_t, uint32_t, uint32_t>> decode(const CsrView& v) {
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> out;
  for (uint32_t r = 0; r < v.num_nodes; ++r) {
    for (uint32_t j = v.row_offset[r]; j < v.row_offset[r + 1]; ++j) {
      if (v.has_gaps && v.col_indices[j] == kSpace) continue;
      out.insert({r, v.col_indices[j], v.eids[j]});
    }
  }
  return out;
}

TEST(ReverseGpma, MatchesDenseReferenceOnGappedInput) {
  // Hand-built gapped adjacency over 4 nodes:
  // row 0: [1, SPACE, 2], row 1: [SPACE], row 2: [0, 3], row 3: [].
  DeviceBuffer<uint32_t> ro(std::vector<uint32_t>{0, 3, 4, 6, 6},
                            MemCategory::kGraph);
  DeviceBuffer<uint32_t> col(
      std::vector<uint32_t>{1, kSpace, 2, kSpace, 0, 3}, MemCategory::kGraph);
  DeviceBuffer<uint32_t> eids(
      std::vector<uint32_t>{0, kSpace, 1, kSpace, 2, 3}, MemCategory::kGraph);
  // Edges: 0→1(e0), 0→2(e1), 2→0(e2), 2→3(e3). In-degrees: [1,1,1,1].
  DeviceBuffer<uint32_t> in_deg(std::vector<uint32_t>{1, 1, 1, 1},
                                MemCategory::kGraph);
  DeviceBuffer<uint32_t> r_ro, r_col, r_eids;
  reverse_gpma(4, ro, col, eids, in_deg, 4, r_ro, r_col, r_eids);

  EXPECT_EQ(r_ro.to_host(), (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  // Reverse adjacency: 0←2(e2), 1←0(e0), 2←0(e1), 3←2(e3).
  EXPECT_EQ(r_col.to_host(), (std::vector<uint32_t>{2, 0, 0, 2}));
  EXPECT_EQ(r_eids.to_host(), (std::vector<uint32_t>{2, 0, 1, 3}));
}

TEST(ReverseGpma, InDegreeMismatchThrows) {
  DeviceBuffer<uint32_t> ro(std::vector<uint32_t>{0, 1}, MemCategory::kGraph);
  DeviceBuffer<uint32_t> col(std::vector<uint32_t>{0}, MemCategory::kGraph);
  DeviceBuffer<uint32_t> eids(std::vector<uint32_t>{0}, MemCategory::kGraph);
  DeviceBuffer<uint32_t> in_deg(std::vector<uint32_t>{5},
                                MemCategory::kGraph);
  DeviceBuffer<uint32_t> r1, r2, r3;
  EXPECT_THROW(reverse_gpma(1, ro, col, eids, in_deg, 1, r1, r2, r3),
               StgError);
}

class GpmaVsNaive : public ::testing::TestWithParam<double> {};

TEST_P(GpmaVsNaive, IdenticalSnapshotsAtEveryTimestamp) {
  const double pct = GetParam();
  DtdgEvents ev = window_edge_stream(50, random_stream(50, 1200, 71), pct);
  NaiveGraph naive(ev);
  GpmaGraph gpma(ev);
  ASSERT_EQ(gpma.num_timestamps(), naive.num_timestamps());

  auto edges_of = [](const SnapshotView& v, bool from_out) {
    std::set<std::pair<uint32_t, uint32_t>> out;
    const CsrView& view = from_out ? v.out_view : v.in_view;
    for (const auto& [r, c, e] : decode(view)) {
      out.insert(from_out ? std::make_pair(r, c) : std::make_pair(c, r));
    }
    return out;
  };

  // Forward sweep, then backward sweep (mimicking Algorithm 1's order).
  for (uint32_t t = 0; t < gpma.num_timestamps(); ++t) {
    SnapshotView vg = gpma.get_graph(t);
    SnapshotView vn = naive.get_graph(t);
    ASSERT_EQ(vg.num_edges, vn.num_edges) << "t=" << t;
    EXPECT_EQ(edges_of(vg, true), edges_of(vn, true)) << "t=" << t;
    EXPECT_EQ(edges_of(vg, false), edges_of(vn, false)) << "t=" << t;
    // Degree arrays agree.
    for (uint32_t v = 0; v < vg.num_nodes; ++v) {
      EXPECT_EQ(vg.in_degrees[v], vn.in_degrees[v]);
      EXPECT_EQ(vg.out_degrees[v], vn.out_degrees[v]);
    }
  }
  for (uint32_t t = gpma.num_timestamps(); t-- > 0;) {
    SnapshotView vg = gpma.get_backward_graph(t);
    SnapshotView vn = naive.get_backward_graph(t);
    EXPECT_EQ(edges_of(vg, true), edges_of(vn, true)) << "bwd t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(PercentChanges, GpmaVsNaive,
                         ::testing::Values(2.0, 5.0, 10.0));

TEST(GpmaGraph, SharedEdgeLabelsBetweenViews) {
  DtdgEvents ev = window_edge_stream(30, random_stream(30, 600, 73), 5.0);
  GpmaGraph g(ev);
  for (uint32_t t : {0u, g.num_timestamps() / 2, g.num_timestamps() - 1}) {
    SnapshotView v = g.get_graph(t);
    // Map edge → label from the gapped out view; the in view must agree.
    std::map<std::pair<uint32_t, uint32_t>, uint32_t> labels;
    for (const auto& [r, c, e] : decode(v.out_view)) labels[{r, c}] = e;
    for (const auto& [r, c, e] : decode(v.in_view)) {
      // in view rows are destinations: edge is (c, r).
      auto it = labels.find({c, r});
      ASSERT_NE(it, labels.end());
      EXPECT_EQ(it->second, e) << "edge (" << c << "," << r << ") at t=" << t;
    }
    // Labels are a compact 0..m-1 range.
    std::set<uint32_t> unique_labels;
    for (const auto& [edge, label] : labels) unique_labels.insert(label);
    EXPECT_EQ(unique_labels.size(), labels.size());
    EXPECT_EQ(*unique_labels.rbegin(), labels.size() - 1);
  }
}

TEST(GpmaGraph, DegreeSortedProcessingOrders) {
  DtdgEvents ev = window_edge_stream(40, random_stream(40, 800, 79), 5.0);
  GpmaGraph g(ev);
  SnapshotView v = g.get_graph(1);
  for (uint32_t i = 0; i + 1 < v.num_nodes; ++i) {
    EXPECT_GE(v.in_degrees[v.in_view.node_ids[i]],
              v.in_degrees[v.in_view.node_ids[i + 1]]);
    EXPECT_GE(v.out_degrees[v.out_view.node_ids[i]],
              v.out_degrees[v.out_view.node_ids[i + 1]]);
  }
}

// The trainer's access pattern over the first `T` timestamps in sequences
// of `seq`, with its pipeline hints: forward get + prefetch(t + 1) inside
// the sequence, then backward get + prefetch(t - 1) down to its start.
void run_training_pass(GpmaGraph& g, uint32_t T, uint32_t seq) {
  for (uint32_t s = 0; s + seq <= T; s += seq) {
    for (uint32_t t = s; t < s + seq; ++t) {
      g.get_graph(t);
      if (t + 1 < s + seq) g.prefetch(t + 1);
    }
    for (uint32_t t = s + seq; t-- > s;) {
      g.get_backward_graph(t);
      if (t > s) g.prefetch(t - 1);
    }
  }
}

TEST(GpmaGraph, CacheAvoidsFullReplayAcrossSequences) {
  DtdgEvents ev = window_edge_stream(40, random_stream(40, 2000, 83), 2.0);
  ASSERT_GE(ev.num_timestamps(), 20u);

  auto run_training_pattern = [&](bool cache_enabled) {
    GpmaGraph g(ev);
    g.set_cache_enabled(cache_enabled);
    run_training_pass(g, 20, 5);
    return g.delta_replays();
  };

  const uint64_t with_cache = run_training_pattern(true);
  const uint64_t without_cache = run_training_pattern(false);
  EXPECT_LT(with_cache, without_cache);
}

TEST(GpmaGraph, CheckpointsHoldAcrossEpochs) {
  DtdgEvents ev = window_edge_stream(40, random_stream(40, 2000, 83), 2.0);
  ASSERT_GE(ev.num_timestamps(), 20u);
  const uint32_t T = 20, seq = 5;
  GpmaGraph g(ev);
  std::vector<uint64_t> replays;
  for (int pass = 0; pass < 3; ++pass) {
    const uint64_t before = g.delta_replays();
    run_training_pass(g, T, seq);
    replays.push_back(g.delta_replays() - before);
  }
  // Every sequence replays seq - 1 deltas each way; each later one also
  // rolls one delta past the previous sequence's turn checkpoint. A later
  // pass starts from the origin checkpoint instead of inverting every
  // delta, and its one-step rolls onto t = 0 still replay (a restore
  // counts as one replay; ties go to the live PMA), so it costs the same.
  const uint64_t want = 2 * (seq - 1) + (T / seq - 1) * (1 + 2 * (seq - 1));
  EXPECT_EQ(replays[0], want);
  EXPECT_EQ(replays[1], replays[0]);
  EXPECT_EQ(replays[2], replays[0]);
}

TEST(GpmaGraph, ForwardOnlyReaderHoldsNoCheckpoint) {
  // The serving pattern: append the next delta, read the new head.
  DtdgEvents ev = window_edge_stream(40, random_stream(40, 900, 131), 8.0);
  ASSERT_GE(ev.deltas.size(), 3u);
  auto serve = [&](bool cache_enabled) {
    GpmaGraph g(DtdgEvents{ev.num_nodes, ev.base_edges, {}});
    g.set_cache_enabled(cache_enabled);
    g.get_graph(0);
    for (const EdgeDelta& d : ev.deltas) {
      g.append_delta(d);
      g.get_graph(g.num_timestamps() - 1);
    }
    return g.device_bytes();
  };
  EXPECT_EQ(serve(true), serve(false));
}

TEST(GpmaGraph, DeviceBytesBelowNaive) {
  DtdgEvents ev = window_edge_stream(60, random_stream(60, 3000, 89), 2.0);
  NaiveGraph naive(ev);
  GpmaGraph gpma(ev);
  // The headline memory claim: base graph + deltas beats one CSR pair per
  // snapshot when snapshots are many and similar.
  EXPECT_LT(gpma.device_bytes(), naive.device_bytes());
}

TEST(GpmaGraph, EdgeCountsTrackDeltas) {
  DtdgEvents ev = window_edge_stream(30, random_stream(30, 700, 97), 10.0);
  GpmaGraph g(ev);
  for (uint32_t t = 0; t < g.num_timestamps(); ++t) {
    EXPECT_EQ(g.num_edges_at(t), ev.snapshot_edges(t).size()) << t;
    SnapshotView v = g.get_graph(t);
    EXPECT_EQ(v.num_edges, g.num_edges_at(t));
  }
}

TEST(GpmaGraph, OutOfRangeTimestampThrows) {
  DtdgEvents ev = window_edge_stream(20, random_stream(20, 300, 101), 10.0);
  GpmaGraph g(ev);
  EXPECT_THROW(g.get_graph(g.num_timestamps()), StgError);
}

// ---- streaming append (serving ingestion path) ----------------------------

TEST(AppendDelta, StreamedTimelineMatchesPrebuiltOneOnBothFormats) {
  DtdgEvents ev = window_edge_stream(40, random_stream(40, 900, 131), 8.0);
  ASSERT_GE(ev.deltas.size(), 3u);

  // Reference: graphs built with the whole timeline up front.
  NaiveGraph ref(ev);

  // Streamed: start from the base snapshot, append_delta one at a time —
  // the serve::Server ingestion path.
  GpmaGraph gpma(DtdgEvents{ev.num_nodes, ev.base_edges, {}});
  NaiveGraph naive(DtdgEvents{ev.num_nodes, ev.base_edges, {}});
  EXPECT_TRUE(gpma.supports_append());
  EXPECT_TRUE(naive.supports_append());
  for (const EdgeDelta& d : ev.deltas) {
    gpma.append_delta(d);
    naive.append_delta(d);
  }
  ASSERT_EQ(gpma.num_timestamps(), ev.num_timestamps());
  ASSERT_EQ(naive.num_timestamps(), ev.num_timestamps());

  auto edge_pairs = [](const SnapshotView& v) {
    std::set<std::pair<uint32_t, uint32_t>> out;
    for (const auto& [r, c, e] : decode(v.out_view)) out.insert({r, c});
    return out;
  };
  for (uint32_t t = 0; t < ev.num_timestamps(); ++t) {
    const auto want = edge_pairs(ref.get_graph(t));
    EXPECT_EQ(edge_pairs(gpma.get_graph(t)), want) << "gpma t=" << t;
    EXPECT_EQ(edge_pairs(naive.get_graph(t)), want) << "naive t=" << t;
    EXPECT_EQ(gpma.num_edges_at(t), ref.num_edges_at(t)) << "t=" << t;
  }
}

TEST(AppendDelta, NaiveRejectsInvalidDeltaAndStaysUnchanged) {
  DtdgEvents ev;
  ev.num_nodes = 4;
  ev.base_edges = {{0, 1}, {1, 2}, {2, 3}};
  NaiveGraph g(ev);

  EdgeDelta missing;
  missing.deletions = {{3, 0}};  // not present
  EXPECT_THROW(g.append_delta(missing), StgError);
  EdgeDelta readd;
  readd.additions = {{0, 1}};  // already present
  EXPECT_THROW(g.append_delta(readd), StgError);
  EdgeDelta oob;
  oob.additions = {{0, 7}};
  EXPECT_THROW(g.append_delta(oob), StgError);

  // Strong guarantee: the timeline did not grow and t=0 still serves.
  EXPECT_EQ(g.num_timestamps(), 1u);
  EXPECT_EQ(g.get_graph(0).num_edges, 3u);

  EdgeDelta good;
  good.additions = {{3, 0}};
  good.deletions = {{0, 1}};
  g.append_delta(good);
  EXPECT_EQ(g.num_timestamps(), 2u);
  EXPECT_EQ(g.num_edges_at(1), 3u);
}

TEST(AppendDelta, GpmaRejectsOutOfBoundsNodesBeforeMutating) {
  DtdgEvents ev;
  ev.num_nodes = 4;
  ev.base_edges = {{0, 1}, {1, 2}};
  GpmaGraph g(ev);
  EdgeDelta oob;
  oob.additions = {{9, 0}};
  EXPECT_THROW(g.append_delta(oob), StgError);
  EXPECT_EQ(g.num_timestamps(), 1u);
  EXPECT_EQ(g.get_graph(0).num_edges, 2u);  // still positions cleanly
}

}  // namespace
}  // namespace stgraph
