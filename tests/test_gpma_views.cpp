// GPMA snapshot views: every view GpmaGraph serves must equal a sequential
// host-side reference rebuilt from the PMA slot array alone (independent
// of the device primitives) — same slot arrays, same edge labels, same row
// offsets, same reverse CSR, same degree orders — after any sequence of
// forward/backward rolls, cache restores and streamed appends. The
// reference pins the canonical layout, so the suite also proves lane-count
// independence: ctest reruns the binary under STGRAPH_NUM_THREADS=1 and =8,
// and every run must agree with the same reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "gpma/gpma_graph.hpp"
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

// Rebuild every view array sequentially on the host from the PMA slot
// array alone, and assert the served view matches. This is an independent
// implementation of the canonical layout: labels in slot order, row
// offsets = first live slot with source >= row, reverse lists in
// ascending source order, orders sorted by (degree desc, id asc).
void expect_matches_reference(const GpmaGraph& g, const SnapshotView& v) {
  const std::vector<uint64_t> slots = g.pma().slots().to_host();
  const uint32_t n = v.num_nodes;
  const std::size_t cap = slots.size();
  std::vector<uint32_t> col(cap), eids(cap), ro(n + 1);
  std::vector<uint32_t> ind(n, 0), outd(n, 0);
  uint32_t next_eid = 0, next_row = 0;
  for (std::size_t i = 0; i < cap; ++i) {
    if (slots[i] == Pma::kEmptyKey) {
      col[i] = kSpace;
      eids[i] = kSpace;
      continue;
    }
    const uint32_t s = edge_key_src(slots[i]);
    const uint32_t d = edge_key_dst(slots[i]);
    while (next_row <= s) ro[next_row++] = static_cast<uint32_t>(i);
    col[i] = d;
    eids[i] = next_eid++;
    ++outd[s];
    ++ind[d];
  }
  while (next_row <= n) ro[next_row++] = static_cast<uint32_t>(cap);
  ASSERT_EQ(next_eid, v.num_edges);

  EXPECT_TRUE(std::equal(ro.begin(), ro.end(), v.out_view.row_offset));
  EXPECT_TRUE(std::equal(col.begin(), col.end(), v.out_view.col_indices));
  EXPECT_TRUE(std::equal(eids.begin(), eids.end(), v.out_view.eids));
  EXPECT_TRUE(std::equal(ind.begin(), ind.end(), v.in_degrees));
  EXPECT_TRUE(std::equal(outd.begin(), outd.end(), v.out_degrees));

  // Reverse CSR: exclusive scan of in-degrees, scatter in slot order.
  std::vector<uint32_t> r_ro(n + 1, 0);
  for (uint32_t d = 0; d < n; ++d) r_ro[d + 1] = r_ro[d] + ind[d];
  std::vector<uint32_t> cursor(r_ro.begin(), r_ro.begin() + n);
  std::vector<uint32_t> r_col(next_eid), r_eids(next_eid);
  for (std::size_t i = 0; i < cap; ++i) {
    if (slots[i] == Pma::kEmptyKey) continue;
    const uint32_t d = edge_key_dst(slots[i]);
    const uint32_t loc = cursor[d]++;
    r_col[loc] = edge_key_src(slots[i]);
    r_eids[loc] = eids[i];
  }
  EXPECT_TRUE(std::equal(r_ro.begin(), r_ro.end(), v.in_view.row_offset));
  EXPECT_TRUE(std::equal(r_col.begin(), r_col.end(), v.in_view.col_indices));
  EXPECT_TRUE(std::equal(r_eids.begin(), r_eids.end(), v.in_view.eids));

  // Degree orders under the canonical strict total order.
  std::vector<uint32_t> fwd(n), bwd(n);
  for (uint32_t i = 0; i < n; ++i) fwd[i] = bwd[i] = i;
  std::sort(fwd.begin(), fwd.end(), [&](uint32_t a, uint32_t b) {
    return ind[a] != ind[b] ? ind[a] > ind[b] : a < b;
  });
  std::sort(bwd.begin(), bwd.end(), [&](uint32_t a, uint32_t b) {
    return outd[a] != outd[b] ? outd[a] > outd[b] : a < b;
  });
  EXPECT_TRUE(std::equal(fwd.begin(), fwd.end(), v.in_view.node_ids));
  EXPECT_TRUE(std::equal(bwd.begin(), bwd.end(), v.out_view.node_ids));
}

TEST(GpmaViews, MatchesSequentialReferenceEverywhere) {
  DtdgEvents ev = window_edge_stream(80, random_stream(80, 2500, 91), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  for (uint32_t t = 0; t < T; ++t) expect_matches_reference(g, g.get_graph(t));
  for (uint32_t t = T; t-- > 0;) expect_matches_reference(g, g.get_graph(t));
  for (uint32_t t = 0; t < T; ++t) expect_matches_reference(g, g.get_graph(t));
  Rng rng(7);
  for (int i = 0; i < 24; ++i) {
    const auto t = static_cast<uint32_t>(rng.next_below(T));
    expect_matches_reference(g, g.get_graph(t));
    if (HasFailure()) FAIL() << "view diverged at timestamp " << t;
  }
}

// Large enough that the relabel, the degree sorts and the Algorithm-3
// scatter all take their multi-lane branches (slot array, node count and
// edge count each past 2^14, and edges at least twice the nodes so the
// scatter's per-lane count matrix fits) at up to 8 lanes.
TEST(GpmaViews, ParallelRebuildMatchesSequentialReference) {
  constexpr uint32_t kNodes = 20000;
  DtdgEvents ev =
      window_edge_stream(kNodes, random_stream(kNodes, 120000, 33), 5.0);
  GpmaGraph g(ev);
  const uint32_t T = std::min<uint32_t>(ev.num_timestamps(), 6);
  ASSERT_GT(T, 3u);
  ASSERT_GE(g.pma().capacity(), std::size_t{1} << 14);
  ASSERT_GE(ev.base_edges.size(), std::size_t{2} * kNodes);
  for (uint32_t t : {0u, 1u, T - 1, 2u, 0u, T - 1}) {
    expect_matches_reference(g, g.get_graph(t));
    if (HasFailure()) FAIL() << "view diverged at timestamp " << t;
  }
}

TEST(GpmaViews, CacheRestoreMatchesSequentialReference) {
  DtdgEvents ev = window_edge_stream(60, random_stream(60, 1500, 13), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  g.get_graph(T - 1);              // roll to the head
  g.get_graph(0);                  // backward roll saves the cache at T-1
  // Forward roll restores the cached PMA, whose slot layout differs from
  // the one the current views were built from.
  expect_matches_reference(g, g.get_graph(T - 1));
}

TEST(GpmaViews, AppendedDeltasServeFreshViewsThroughTheCache) {
  DtdgEvents ev = window_edge_stream(50, random_stream(50, 1000, 5), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  g.get_graph(T - 1);

  // Build a valid streamed delta: delete a few live edges, add a few
  // absent ones.
  EdgeList head = ev.snapshot_edges(T - 1);
  std::set<std::pair<uint32_t, uint32_t>> live(head.begin(), head.end());
  EdgeDelta d;
  for (std::size_t i = 0; i < 3 && i < head.size(); ++i)
    d.deletions.push_back(head[i]);
  Rng rng(17);
  while (d.additions.size() < 5) {
    std::pair<uint32_t, uint32_t> e{
        static_cast<uint32_t>(rng.next_below(50)),
        static_cast<uint32_t>(rng.next_below(50))};
    if (live.insert(e).second) d.additions.push_back(e);
  }
  g.append_delta(d);
  ASSERT_EQ(g.num_timestamps(), T + 1);

  // Serve the appended timestamp, then bounce through the cached region
  // and back; every stop must agree with the sequential reference, and the
  // appended timestamp must hold exactly the streamed edge set.
  for (uint32_t t : {T, 0u, T, T - 1, T}) {
    SnapshotView v = g.get_graph(t);
    expect_matches_reference(g, v);
    if (t == T) {
      std::set<std::pair<uint32_t, uint32_t>> want(live);
      for (const auto& e : d.deletions) want.erase(e);
      std::set<std::pair<uint32_t, uint32_t>> got;
      for (uint64_t k : g.pma().extract_sorted())
        got.emplace(edge_key_src(k), edge_key_dst(k));
      EXPECT_EQ(got, want);
    }
    if (HasFailure()) FAIL() << "view diverged at timestamp " << t;
  }
}

}  // namespace
}  // namespace stgraph
