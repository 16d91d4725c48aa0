// SIMD kernel-engine parity fuzz: the specialized engine behind run_kernel
// (vector or scalar, selected by STGRAPH_SIMD) must reproduce the retained
// interpreted reference bit for bit — same float accumulation order, same
// c == 0 skip (and hence NaN/Inf propagation), same argmax winners — across
// every coefficient product, aggregation kind, direction, view shape
// (gapped/ungapped, eids present/absent, coef cache present/absent) and odd
// feature sizes that exercise the sub-vector tails and both tiling paths.
// ctest reruns the binary under STGRAPH_SIMD=off, STGRAPH_NUM_THREADS=1 and
// STGRAPH_NUM_THREADS=8, so the scalar engine, the serial schedule and a
// multi-lane strided schedule are held to the same oracle on any host.
//
// Also pins the per-snapshot GCN-norm cache contract: the eid-indexed array
// served by the graph classes must equal the inline per-edge computation
// exactly, including after GPMA deltas roll the snapshot (a stale cache
// after an insert/delete is precisely the regression this guards against).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "compiler/autodiff.hpp"
#include "compiler/kernel.hpp"
#include "compiler/passes.hpp"
#include "compiler/trace.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/csr.hpp"
#include "graph/dtdg.hpp"
#include "graph/static_graph.hpp"
#include "runtime/simd.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

using namespace compiler;

// Which coefficient kinds the edge term multiplies together.
struct CoefSet {
  bool cst, inv, invp1, gcn, ew;
};

Program make_program(const CoefSet& cs, AggKind agg, bool self, bool scale) {
  return trace([&](VertexContext& v) -> AggExpr {
    MsgExpr msg = v.src_feature(0);
    if (cs.ew) msg = v.edge_weight() * msg;
    if (cs.gcn) msg = v.gcn_norm() * msg;
    if (cs.invp1) msg = v.inv_degree_p1() * msg;
    if (cs.inv) msg = v.inv_degree() * msg;
    if (cs.cst) msg = v.constant(1.375f) * msg;
    AggExpr e = agg == AggKind::kSum    ? v.agg_sum(msg)
                : agg == AggKind::kMean ? v.agg_mean(msg)
                                        : v.agg_max(msg);
    if (self) e.with_self_loop(cs.gcn ? v.gcn_norm() : v.constant(0.75f));
    if (scale) e.scaled(0.5f);
    return e;
  });
}

void expect_bits_equal(const std::vector<float>& eng,
                       const std::vector<float>& ref, const char* what) {
  ASSERT_EQ(eng.size(), ref.size());
  for (std::size_t i = 0; i < eng.size(); ++i) {
    uint32_t be, br;
    std::memcpy(&be, &eng[i], sizeof(be));
    std::memcpy(&br, &ref[i], sizeof(br));
    ASSERT_EQ(be, br) << what << " diverges at " << i << ": engine "
                      << eng[i] << " vs reference " << ref[i];
  }
}

// Random fuzz graph: compact forward/backward views with shared eids plus
// per-eid edge weights (a few exact zeros to exercise the c == 0 skip) and
// features salted with NaN/Inf/-0 so parity covers special-value handling.
struct FuzzGraph {
  uint32_t n;
  std::unique_ptr<StaticTemporalGraph> graph;
  SnapshotView view;
  std::vector<float> ew;

  FuzzGraph(uint32_t nodes, std::size_t tries, uint64_t seed) : n(nodes) {
    Rng rng(seed);
    EdgeList edges;
    std::set<std::pair<uint32_t, uint32_t>> seen;
    for (std::size_t i = 0; i < tries; ++i) {
      uint32_t s = static_cast<uint32_t>(rng.next_below(n));
      uint32_t d = static_cast<uint32_t>(rng.next_below(n));
      if (s == d || !seen.insert({s, d}).second) continue;
      edges.emplace_back(s, d);
    }
    graph = std::make_unique<StaticTemporalGraph>(n, edges, 1);
    view = graph->get_graph(0);
    ew.resize(edges.size());
    for (auto& w : ew)
      w = rng.next_below(8) == 0 ? 0.0f : rng.uniform(0.5f, 1.5f);
  }

  std::vector<float> features(int64_t F, Rng& rng, bool specials) const {
    std::vector<float> x(static_cast<std::size_t>(n) * F);
    for (auto& v : x) v = rng.normal();
    if (specials && x.size() > 8) {
      x[rng.next_below(x.size())] = std::numeric_limits<float>::quiet_NaN();
      x[rng.next_below(x.size())] = std::numeric_limits<float>::infinity();
      x[rng.next_below(x.size())] = -std::numeric_limits<float>::infinity();
      x[rng.next_below(x.size())] = -0.0f;
    }
    return x;
  }
};

// Copy of a compact CsrView with kSpace slots sprinkled in (the gapped PMA
// layout); rows stay contiguous, labels are unchanged.
struct GappedCopy {
  std::vector<uint32_t> ro, col, eids;

  GappedCopy(const CsrView& v, Rng& rng) {
    ro.resize(static_cast<std::size_t>(v.num_nodes) + 1);
    for (uint32_t r = 0; r < v.num_nodes; ++r) {
      ro[r] = static_cast<uint32_t>(col.size());
      for (uint32_t j = v.row_offset[r]; j < v.row_offset[r + 1]; ++j) {
        while (rng.next_below(3) == 0) {
          col.push_back(kSpace);
          eids.push_back(kSpace);
        }
        col.push_back(v.col_indices[j]);
        eids.push_back(v.eids[j]);
      }
      if (rng.next_below(2) == 0) {
        col.push_back(kSpace);
        eids.push_back(kSpace);
      }
    }
    ro[v.num_nodes] = static_cast<uint32_t>(col.size());
  }

  CsrView view_of(const CsrView& v) const {
    CsrView g = v;
    g.row_offset = ro.data();
    g.col_indices = col.data();
    g.eids = eids.data();
    g.node_ids = nullptr;
    g.has_gaps = true;
    return g;
  }
};

enum class ViewShape { kCompact, kGapped, kNoEids };

// Run the same launch through the engine (run_kernel) and the interpreted
// reference and assert bitwise-identical outputs (and argmax for max).
void check_parity(const KernelSpec& spec, KernelArgs args, uint32_t n,
                  int64_t F, const char* what) {
  ASSERT_TRUE(spec.specializable);
  std::vector<float> out_eng(static_cast<std::size_t>(n) * F, -2.0f);
  std::vector<float> out_ref(static_cast<std::size_t>(n) * F, -2.0f);
  std::vector<uint32_t> am_eng, am_ref;
  const bool max_fwd =
      spec.program.agg == AggKind::kMax && !spec.program.max_backward;
  if (max_fwd) {
    am_eng.assign(static_cast<std::size_t>(n) * F, 0xCCCCCCCCu);
    am_ref.assign(static_cast<std::size_t>(n) * F, 0xCCCCCCCCu);
  }

  args.out = out_eng.data();
  if (max_fwd) args.argmax_out = am_eng.data();
  run_kernel(spec, args);

  args.out = out_ref.data();
  if (max_fwd) args.argmax_out = am_ref.data();
  run_kernel_reference(spec, args);

  expect_bits_equal(out_eng, out_ref, what);
  if (max_fwd) {
    for (std::size_t i = 0; i < am_eng.size(); ++i)
      ASSERT_EQ(am_eng[i], am_ref[i])
          << what << " argmax diverges at " << i;
  }
}

constexpr int64_t kFeatureSizes[] = {1, 3, 8, 31, 32, 33, 127};

TEST(KernelSimdFuzz, SumAndMeanParity) {
  const CoefSet kSets[] = {
      {true, false, false, false, false},   // const
      {false, true, false, false, false},   // 1/deg
      {false, false, true, false, false},   // 1/(deg+1)
      {false, false, false, true, false},   // gcn
      {false, false, false, true, true},    // gcn * ew  (GCN with weights)
      {true, true, false, false, true},     // const * 1/deg * ew
  };
  int cfg = 0;
  for (int64_t F : kFeatureSizes) {
    // Alternate between a graph too small to fill the lanes (small-n
    // tiling path) and one that is not.
    const uint32_t n = (F % 2) ? 193 : 7;
    FuzzGraph fg(n, static_cast<std::size_t>(n) * 10, 1000 + F);
    Rng rng(2000 + F);
    const GappedCopy gap_fwd(fg.view.in_view, rng);
    const GappedCopy gap_bwd(fg.view.out_view, rng);
    const std::vector<float> x = fg.features(F, rng, /*specials=*/true);
    const float* inputs[1] = {x.data()};

    for (const CoefSet& cs : kSets) {
      for (AggKind agg : {AggKind::kSum, AggKind::kMean}) {
        for (bool fwd : {true, false}) {
          const bool self = (++cfg % 2) == 0;
          const bool scale = (cfg % 3) == 0;
          KernelSpec spec = compile(make_program(cs, agg, self, scale));

          KernelArgs base;
          base.in_degrees = fg.view.in_degrees;
          base.inputs = inputs;
          base.self_features = x.data();
          base.edge_weights = cs.ew ? fg.ew.data() : nullptr;
          base.num_feats = static_cast<uint32_t>(F);
          base.producer_is_col = fwd;
          const CsrView& compact =
              fwd ? fg.view.in_view : fg.view.out_view;
          const GappedCopy& gapped = fwd ? gap_fwd : gap_bwd;

          for (ViewShape shape :
               {ViewShape::kCompact, ViewShape::kGapped, ViewShape::kNoEids}) {
            KernelArgs a = base;
            switch (shape) {
              case ViewShape::kCompact:
                a.view = compact;
                a.gcn_coef = fg.view.gcn_coef;  // cache vs inline reference
                break;
              case ViewShape::kGapped:
                a.view = gapped.view_of(compact);
                a.gcn_coef = fg.view.gcn_coef;
                break;
              case ViewShape::kNoEids:
                // Positions stand in for labels; the engine must ignore the
                // eid-indexed cache even though one is bound.
                a.view = compact;
                a.view.eids = nullptr;
                a.gcn_coef = fg.view.gcn_coef;
                if (cs.ew) continue;  // weights would need eids
                break;
            }
            SCOPED_TRACE(::testing::Message()
                         << "F=" << F << " n=" << n << " agg=" << int(agg)
                         << " fwd=" << fwd << " shape=" << int(shape)
                         << " cfg=" << cfg);
            check_parity(spec, a, n, F, "sum/mean");
            if (HasFatalFailure()) return;
          }
        }
      }
    }
  }
}

TEST(KernelSimdFuzz, MaxForwardAndBackwardParity) {
  const CoefSet kSets[] = {
      {true, false, false, false, false},
      {false, false, false, true, false},
      {false, false, false, false, true},
      {false, false, false, true, true},
      {false, true, false, false, false},
  };
  int cfg = 0;
  for (int64_t F : kFeatureSizes) {
    const uint32_t n = (F % 2) ? 151 : 9;
    FuzzGraph fg(n, static_cast<std::size_t>(n) * 8, 3000 + F);
    Rng rng(4000 + F);
    const GappedCopy gap_bwd(fg.view.out_view, rng);
    const std::vector<float> x = fg.features(F, rng, /*specials=*/true);
    const std::vector<float> g = fg.features(F, rng, /*specials=*/false);

    for (const CoefSet& cs : kSets) {
      const bool self = (++cfg % 2) == 0;
      Program fwd_prog = optimize(make_program(cs, AggKind::kMax, self, true));
      KernelSpec fwd = compile(fwd_prog);
      KernelSpec bwd = compile(differentiate(fwd_prog, 0));
      ASSERT_TRUE(bwd.program.max_backward);

      // Forward parity (out + argmax, cached and inline gcn).
      std::vector<uint32_t> argmax(static_cast<std::size_t>(n) * F,
                                   0xCCCCCCCCu);
      {
        const float* inputs[1] = {x.data()};
        KernelArgs a;
        a.view = fg.view.in_view;
        a.in_degrees = fg.view.in_degrees;
        a.inputs = inputs;
        a.self_features = x.data();
        a.edge_weights = cs.ew ? fg.ew.data() : nullptr;
        a.gcn_coef = fg.view.gcn_coef;
        a.num_feats = static_cast<uint32_t>(F);
        a.producer_is_col = true;
        SCOPED_TRACE(::testing::Message() << "max fwd F=" << F << " cfg=" << cfg);
        check_parity(fwd, a, n, F, "max fwd");
        if (HasFatalFailure()) return;
        // Keep the reference argmax for the backward launch below.
        std::vector<float> out(static_cast<std::size_t>(n) * F);
        a.out = out.data();
        a.argmax_out = argmax.data();
        run_kernel_reference(fwd, a);
      }

      // Backward parity over compact and gapped producer views.
      for (bool gapped : {false, true}) {
        const float* inputs[1] = {g.data()};
        KernelArgs a;
        a.view = gapped ? gap_bwd.view_of(fg.view.out_view) : fg.view.out_view;
        a.in_degrees = fg.view.in_degrees;
        a.inputs = inputs;
        a.self_features = g.data();
        a.edge_weights = cs.ew ? fg.ew.data() : nullptr;
        a.gcn_coef = fg.view.gcn_coef;
        a.argmax_in = argmax.data();
        a.num_feats = static_cast<uint32_t>(F);
        a.producer_is_col = false;
        SCOPED_TRACE(::testing::Message()
                     << "max bwd F=" << F << " cfg=" << cfg
                     << " gapped=" << gapped);
        check_parity(bwd, a, n, F, "max bwd");
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelSimdFuzz, MultiTermMultiInputParity) {
  for (int64_t F : {3LL, 32LL, 127LL}) {
    const uint32_t n = 61;
    FuzzGraph fg(n, 500, 500 + F);
    Rng rng(600 + F);
    const std::vector<float> x = fg.features(F, rng, true);
    const std::vector<float> y = fg.features(F, rng, true);
    KernelSpec spec = compile(trace([](VertexContext& v) -> AggExpr {
      MsgExpr msg = v.constant(2.0f) * v.src_feature(0) +
                    v.inv_degree_p1() * v.src_feature(1) +
                    v.gcn_norm() * v.edge_weight() * v.src_feature(0);
      return v.agg_sum(msg).with_self_loop(v.gcn_norm(), 1).scaled(0.25f);
    }));
    const float* inputs[2] = {x.data(), y.data()};
    KernelArgs a;
    a.view = fg.view.in_view;
    a.in_degrees = fg.view.in_degrees;
    a.inputs = inputs;
    a.self_features = y.data();
    a.edge_weights = fg.ew.data();
    a.gcn_coef = fg.view.gcn_coef;
    a.num_feats = static_cast<uint32_t>(F);
    a.producer_is_col = true;
    SCOPED_TRACE(::testing::Message() << "multi-term F=" << F);
    check_parity(spec, a, n, F, "multi-term");
    if (HasFatalFailure()) return;
  }
}

TEST(KernelSimdFuzz, CachedCoefBitIdenticalToInline) {
  // Same engine, cache bound vs not: the per-snapshot array must be
  // indistinguishable from the inline computation.
  const uint32_t n = 97;
  const int64_t F = 32;
  FuzzGraph fg(n, 900, 42);
  Rng rng(43);
  const std::vector<float> x = fg.features(F, rng, false);
  KernelSpec spec = compile(trace([](VertexContext& v) -> AggExpr {
    return v.agg_sum(v.gcn_norm() * v.src_feature(0))
        .with_self_loop(v.gcn_norm());
  }));
  const float* inputs[1] = {x.data()};
  std::vector<float> with_cache(n * F), inline_only(n * F);
  KernelArgs a;
  a.view = fg.view.in_view;
  a.in_degrees = fg.view.in_degrees;
  a.inputs = inputs;
  a.self_features = x.data();
  a.num_feats = static_cast<uint32_t>(F);
  a.producer_is_col = true;
  ASSERT_NE(fg.view.gcn_coef, nullptr);
  a.gcn_coef = fg.view.gcn_coef;
  a.out = with_cache.data();
  run_kernel(spec, a);
  a.gcn_coef = nullptr;
  a.out = inline_only.data();
  run_kernel(spec, a);
  expect_bits_equal(with_cache, inline_only, "cache-vs-inline");
}

// ---- per-snapshot cache maintenance on the dynamic graph ------------------

EdgeList random_stream(uint32_t nodes, std::size_t events, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  for (std::size_t i = 0; i < events; ++i)
    stream.emplace_back(static_cast<uint32_t>(rng.next_below(nodes)),
                        static_cast<uint32_t>(rng.next_below(nodes)));
  return stream;
}

// Every served coefficient must equal the from-scratch per-edge value.
void expect_cache_exact(const SnapshotView& v) {
  ASSERT_NE(v.gcn_coef, nullptr);
  const CsrView& in = v.in_view;
  for (uint32_t dst = 0; dst < in.num_nodes; ++dst) {
    for (uint32_t j = in.row_offset[dst]; j < in.row_offset[dst + 1]; ++j) {
      const uint32_t src = in.col_indices[j];
      const uint32_t eid = in.eids[j];
      const float want = gcn_norm_coef(v.in_degrees[src], v.in_degrees[dst]);
      uint32_t bg, bw;
      std::memcpy(&bg, &v.gcn_coef[eid], sizeof(bg));
      std::memcpy(&bw, &want, sizeof(bw));
      ASSERT_EQ(bg, bw) << "stale coef for edge " << src << "->" << dst
                        << " (eid " << eid << "): cached " << v.gcn_coef[eid]
                        << ", expected " << want;
    }
  }
}

TEST(CoefCache, GpmaDeltasInvalidateTheCache) {
  // Inserts and deletes must refresh the coefficient array too, never
  // serve stale norms.
  DtdgEvents ev = window_edge_stream(100, random_stream(100, 3000, 77), 0.03);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  ASSERT_GT(T, 4u);
  for (uint32_t t = 0; t < T; ++t) expect_cache_exact(g.get_graph(t));
  for (uint32_t t = T; t-- > 0;) expect_cache_exact(g.get_graph(t));
}

TEST(CoefCache, DisableServesNullAndReenableRebuilds) {
  DtdgEvents ev = window_edge_stream(60, random_stream(60, 1200, 5), 0.05);
  GpmaGraph g(ev);
  const uint32_t T = ev.num_timestamps();
  expect_cache_exact(g.get_graph(0));
  g.set_coef_cache_enabled(false);
  EXPECT_EQ(g.get_graph(0).gcn_coef, nullptr);
  EXPECT_EQ(g.get_graph(T - 1).gcn_coef, nullptr);  // rolls stay null
  g.set_coef_cache_enabled(true);
  expect_cache_exact(g.get_graph(T - 1));
  expect_cache_exact(g.get_graph(0));
}

TEST(CoefCache, StaticAndNaiveViewsServeExactCaches) {
  FuzzGraph fg(50, 400, 9);
  expect_cache_exact(fg.view);
}

}  // namespace
}  // namespace stgraph
