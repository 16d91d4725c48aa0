// SIMD kernel-engine parity fuzz: the specialized engine behind run_kernel
// must reproduce the interpreted reference (the oracle library's
// run_kernel_reference) bit for bit — same float accumulation order, same
// c == 0 skip (and hence NaN/Inf propagation) — across every coefficient
// product, aggregation kind, direction, view shape (gapped/ungapped, coef
// cache present/absent) and odd feature sizes that exercise the sub-vector
// tails and both tiling paths.
// ctest reruns the binary at 1 and 8 lanes, and `./run_all.sh portable` on
// the scalar backend, so the serial schedule, a multi-lane strided schedule
// and ScalarOps are held to the same oracle on any host.
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

#include "compiler/kernel.hpp"
#include "compiler/kernel_reference.hpp"
#include "compiler/trace.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/csr.hpp"
#include "graph/dtdg.hpp"
#include "graph/static_graph.hpp"
#include "util/check.hpp"
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
    AggExpr e = agg == AggKind::kSum ? v.agg_sum(msg) : v.agg_mean(msg);
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

// Run the same launch through the engine (run_kernel) and the interpreted
// reference and assert bitwise-identical outputs.
void check_parity(const KernelSpec& spec, KernelArgs args, uint32_t n,
                  int64_t F, const char* what) {
  std::vector<float> out_eng(static_cast<std::size_t>(n) * F, -2.0f);
  std::vector<float> out_ref(static_cast<std::size_t>(n) * F, -2.0f);

  args.out = out_eng.data();
  run_kernel(spec, args);

  args.out = out_ref.data();
  run_kernel_reference(spec, args);

  expect_bits_equal(out_eng, out_ref, what);
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

          for (bool gaps : {false, true}) {
            KernelArgs a = base;
            a.view = gaps ? gapped.view_of(compact) : compact;
            a.gcn_coef = fg.view.gcn_coef;  // cache vs inline reference
            SCOPED_TRACE(::testing::Message()
                         << "F=" << F << " n=" << n << " agg=" << int(agg)
                         << " fwd=" << fwd << " gaps=" << gaps
                         << " cfg=" << cfg);
            check_parity(spec, a, n, F, "sum/mean");
            if (HasFatalFailure()) return;
          }
        }
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

TEST(KernelCompile, RejectsProgramsBeyondTheEngineGrid) {
  // run_kernel has one executable form, the engine, so compile() refuses
  // what the engine grid cannot hold instead of handing it to a fallback.
  // Terms on distinct inputs survive dedup_terms.
  auto terms_program = [](uint32_t terms) {
    Program p;
    for (uint32_t i = 0; i < terms; ++i)
      p.terms.push_back(MessageTerm{{Coef{CoefKind::kGcnNorm, 1.0f}},
                                    static_cast<int>(i)});
    return p;
  };
  EXPECT_EQ(compile(terms_program(kMaxSpecializedTerms)).plans.size(),
            kMaxSpecializedTerms);
  EXPECT_THROW(compile(terms_program(kMaxSpecializedTerms + 1)), StgError);

  auto factors_program = [](std::size_t factors) {
    Program p;
    p.terms.push_back(MessageTerm{
        std::vector<Coef>(factors, Coef{CoefKind::kEdgeWeight, 1.0f}), 0});
    return p;
  };
  EXPECT_EQ(compile(factors_program(255)).plans[0].edge_w, 255);
  EXPECT_THROW(compile(factors_program(256)), StgError);
  Program self = factors_program(1);
  self.include_self = true;
  self.self_coefs.assign(256, Coef{CoefKind::kInvDegree, 1.0f});
  EXPECT_THROW(compile(self), StgError);
}

// Edge weights and the coefficient cache are indexed by edge label, so a
// view with slots must carry its eid array; positions never stand in.
TEST(KernelArgsValidation, RejectsSlotsWithoutEids) {
  FuzzGraph fg(20, 100, 5);
  Rng rng(6);
  const std::vector<float> x = fg.features(4, rng, false);
  const float* inputs[1] = {x.data()};
  std::vector<float> out(static_cast<std::size_t>(fg.n) * 4);
  KernelSpec spec = compile(trace([](VertexContext& v) -> AggExpr {
    return v.agg_sum(v.gcn_norm() * v.src_feature(0));
  }));
  KernelArgs a;
  a.view = fg.view.in_view;
  a.in_degrees = fg.view.in_degrees;
  a.inputs = inputs;
  a.gcn_coef = fg.view.gcn_coef;
  a.out = out.data();
  a.num_feats = 4;
  ASSERT_GT(a.view.row_offset[a.view.num_nodes], 0u);
  EXPECT_NO_THROW(run_kernel(spec, a));
  a.view.eids = nullptr;
  EXPECT_THROW(run_kernel(spec, a), StgError);
}

// A graph without edges has no slots, so it needs no eid array: the launch
// runs and writes the self term alone.
TEST(KernelArgsValidation, EmptyGraphRunsWithoutEids) {
  const uint32_t n = 5;
  const int64_t F = 3;
  const std::vector<uint32_t> row_offset(n + 1, 0);
  const std::vector<uint32_t> deg(n, 0);
  Rng rng(7);
  std::vector<float> x(static_cast<std::size_t>(n) * F);
  for (auto& v : x) v = rng.normal();
  const float* inputs[1] = {x.data()};
  KernelSpec spec = compile(trace([](VertexContext& v) -> AggExpr {
    return v.agg_sum(v.gcn_norm() * v.src_feature(0))
        .with_self_loop(v.constant(0.75f));
  }));
  KernelArgs a;
  a.view.num_nodes = n;
  a.view.row_offset = row_offset.data();
  a.in_degrees = deg.data();
  a.inputs = inputs;
  a.self_features = x.data();
  a.num_feats = static_cast<uint32_t>(F);
  ASSERT_EQ(a.view.eids, nullptr);
  check_parity(spec, a, n, F, "empty graph");
  std::vector<float> out(x.size(), -2.0f);
  a.out = out.data();
  run_kernel(spec, a);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_EQ(out[i], 0.75f * x[i]) << i;
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

TEST(CoefCache, StaticAndNaiveViewsServeExactCaches) {
  FuzzGraph fg(50, 400, 9);
  expect_cache_exact(fg.view);
}

}  // namespace
}  // namespace stgraph
