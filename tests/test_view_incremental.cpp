// Delta-bounded incremental view maintenance: the patched snapshot arrays
// must be bit-identical to a from-scratch rebuild after any sequence of
// forward/backward rolls — same slot arrays, same edge labels, same row
// offsets, same reverse CSR, same degree orders. A sequential host-side
// reference (independent of the device primitives) pins the canonical
// layout so the suite also proves lane-count independence: ctest runs the
// whole binary a second time under STGRAPH_NUM_THREADS=1 and both runs
// must agree with the same reference.
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

// Assert every array of two snapshot views is bit-identical (gaps
// included) — not just set-equal.
void expect_views_identical(const GpmaGraph& gi, const GpmaGraph& gf,
                            const SnapshotView& a, const SnapshotView& b) {
  ASSERT_EQ(a.num_edges, b.num_edges);
  ASSERT_EQ(a.num_nodes, b.num_nodes);
  const std::size_t cap = gi.pma().capacity();
  ASSERT_EQ(cap, gf.pma().capacity());
  const uint32_t n = a.num_nodes;
  const uint32_t m = a.num_edges;
  EXPECT_TRUE(std::equal(a.out_view.row_offset, a.out_view.row_offset + n + 1,
                         b.out_view.row_offset));
  EXPECT_TRUE(std::equal(a.out_view.col_indices, a.out_view.col_indices + cap,
                         b.out_view.col_indices));
  EXPECT_TRUE(
      std::equal(a.out_view.eids, a.out_view.eids + cap, b.out_view.eids));
  EXPECT_TRUE(std::equal(a.out_view.node_ids, a.out_view.node_ids + n,
                         b.out_view.node_ids));
  EXPECT_TRUE(std::equal(a.in_view.row_offset, a.in_view.row_offset + n + 1,
                         b.in_view.row_offset));
  EXPECT_TRUE(std::equal(a.in_view.col_indices, a.in_view.col_indices + m,
                         b.in_view.col_indices));
  EXPECT_TRUE(std::equal(a.in_view.eids, a.in_view.eids + m, b.in_view.eids));
  EXPECT_TRUE(std::equal(a.in_view.node_ids, a.in_view.node_ids + n,
                         b.in_view.node_ids));
  EXPECT_TRUE(std::equal(a.in_degrees, a.in_degrees + n, b.in_degrees));
  EXPECT_TRUE(std::equal(a.out_degrees, a.out_degrees + n, b.out_degrees));
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

TEST(ViewIncremental, BitIdenticalToFullRebuildAcrossRolls) {
  DtdgEvents ev = window_edge_stream(120, random_stream(120, 4000, 2024), 0.03);
  GpmaGraph inc(ev);
  GpmaGraph full(ev);
  full.set_incremental_views(false);
  const uint32_t T = ev.num_timestamps();
  ASSERT_GT(T, 4u);

  // fwd -> bwd -> fwd roll pattern (exercises the Algorithm-2 cache
  // save/restore on the turns), then random jumps.
  std::vector<uint32_t> schedule;
  for (uint32_t t = 0; t < T; ++t) schedule.push_back(t);
  for (uint32_t t = T; t-- > 0;) schedule.push_back(t);
  for (uint32_t t = 0; t < T; ++t) schedule.push_back(t);
  Rng rng(7);
  for (int i = 0; i < 24; ++i)
    schedule.push_back(static_cast<uint32_t>(rng.next_below(T)));

  for (uint32_t t : schedule) {
    SnapshotView a = inc.get_graph(t);
    SnapshotView b = full.get_graph(t);
    expect_views_identical(inc, full, a, b);
    if (HasFailure()) FAIL() << "views diverged at timestamp " << t;
  }
  // The whole point: the small-delta rolls must actually have taken the
  // incremental path.
  EXPECT_GT(inc.incremental_view_updates(), 0u);
  EXPECT_EQ(full.incremental_view_updates(), 0u);
  EXPECT_GT(full.full_view_rebuilds(), 0u);
}

TEST(ViewIncremental, MatchesSequentialReferenceEverywhere) {
  DtdgEvents ev = window_edge_stream(80, random_stream(80, 2500, 91), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  for (uint32_t t = 0; t < T; ++t) expect_matches_reference(g, g.get_graph(t));
  for (uint32_t t = T; t-- > 0;) expect_matches_reference(g, g.get_graph(t));
  for (uint32_t t = 0; t < T; ++t) expect_matches_reference(g, g.get_graph(t));
  EXPECT_GT(g.incremental_view_updates(), 0u);
}

TEST(ViewIncremental, CacheRestoreForcesAFullRebuild) {
  DtdgEvents ev = window_edge_stream(60, random_stream(60, 1500, 13), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  g.get_graph(T - 1);              // roll to the head
  g.get_graph(0);                  // backward roll saves the cache at T-1
  g.reset_update_stats();
  g.get_graph(T - 1);              // forward roll restores the cached PMA
  // The restored PMA's dirty bitmap describes a different history than the
  // current views, so serving it through the incremental path would hand
  // out stale arrays. The refresh right after a restore must be a full
  // rebuild.
  EXPECT_GE(g.full_view_rebuilds(), 1u);
  expect_matches_reference(g, g.get_graph(T - 1));
}

TEST(ViewIncremental, AppendedDeltasServeFreshViewsThroughTheCache) {
  DtdgEvents ev = window_edge_stream(50, random_stream(50, 1000, 5), 0.05);
  GpmaGraph inc(ev);
  GpmaGraph full(ev);
  full.set_incremental_views(false);
  const uint32_t T = ev.num_timestamps();
  inc.get_graph(T - 1);
  full.get_graph(T - 1);

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
  inc.append_delta(d);
  full.append_delta(d);
  ASSERT_EQ(inc.num_timestamps(), T + 1);

  // Serve the appended timestamp, then bounce through the cached region
  // and back; every stop must agree with the full-rebuild twin and with
  // the sequential reference.
  for (uint32_t t : {T, 0u, T, T - 1, T}) {
    SnapshotView a = inc.get_graph(t);
    SnapshotView b = full.get_graph(t);
    expect_views_identical(inc, full, a, b);
    expect_matches_reference(inc, a);
    if (HasFailure()) FAIL() << "views diverged at timestamp " << t;
  }
}

}  // namespace
}  // namespace stgraph
