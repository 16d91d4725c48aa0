// Structural invariant analyzer (src/verify/): clean graphs of every
// format must audit clean — including a GPMAGraph that has been rolling
// through its timeline delta by delta — and each checker
// must FIRE on a seeded corruption of exactly the invariant it guards
// (flipped row offset, swapped edge labels, staled coefficient cache,
// unbalanced stack trace, ...). A checker that never fires is worse than
// none: it certifies corrupt structures as OK.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compiler/kernel.hpp"
#include "compiler/trace.hpp"
#include "core/executor.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/naive_graph.hpp"
#include "graph/static_graph.hpp"
#include "nn/models.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"
#include "verify/validate.hpp"

namespace stgraph {
namespace {

using namespace datasets;

EdgeList random_stream(uint32_t nodes, std::size_t events, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  for (std::size_t i = 0; i < events; ++i)
    stream.emplace_back(static_cast<uint32_t>(rng.next_below(nodes)),
                        static_cast<uint32_t>(rng.next_below(nodes)));
  return stream;
}

DtdgEvents tiny_dtdg(uint32_t nodes = 60, std::size_t events = 1500,
                     uint64_t seed = 13) {
  return window_edge_stream(nodes, random_stream(nodes, events, seed), 0.05);
}

bool has_finding_from(const verify::Report& r, const std::string& prefix) {
  for (const auto& f : r.findings())
    if (f.checker.compare(0, prefix.size(), prefix) == 0) return true;
  return false;
}

// A small compact snapshot built by hand so corruptions are surgical:
//   edges (src->dst): 0->1 (eid 0), 0->2 (eid 1), 1->2 (eid 2), 2->0 (eid 3)
struct HandGraph {
  // out_view: rows = src.
  std::vector<uint32_t> out_ro{0, 2, 3, 4};
  std::vector<uint32_t> out_col{1, 2, 2, 0};
  std::vector<uint32_t> out_eid{0, 1, 2, 3};
  // in_view: rows = dst.
  std::vector<uint32_t> in_ro{0, 1, 2, 4};
  std::vector<uint32_t> in_col{2, 0, 0, 1};
  std::vector<uint32_t> in_eid{3, 0, 1, 2};
  std::vector<uint32_t> in_deg{1, 1, 2};
  std::vector<uint32_t> out_deg{2, 1, 1};
  // Canonical (deg desc, id asc) orders.
  std::vector<uint32_t> fwd_order{2, 0, 1};  // by in-degree
  std::vector<uint32_t> bwd_order{0, 1, 2};  // by out-degree

  CsrView in_view() const {
    CsrView v;
    v.num_nodes = 3;
    v.num_edges = 4;
    v.row_offset = in_ro.data();
    v.col_indices = in_col.data();
    v.eids = in_eid.data();
    v.node_ids = fwd_order.data();
    return v;
  }
  CsrView out_view() const {
    CsrView v;
    v.num_nodes = 3;
    v.num_edges = 4;
    v.row_offset = out_ro.data();
    v.col_indices = out_col.data();
    v.eids = out_eid.data();
    v.node_ids = bwd_order.data();
    return v;
  }
  SnapshotView view() const {
    SnapshotView v;
    v.num_nodes = 3;
    v.num_edges = 4;
    v.in_view = in_view();
    v.out_view = out_view();
    v.in_degrees = in_deg.data();
    v.out_degrees = out_deg.data();
    return v;
  }
};

// ---- clean structures audit clean -----------------------------------------

TEST(Verify, HandBuiltSnapshotIsClean) {
  HandGraph g;
  verify::Report r = verify::check_snapshot_view(g.view());
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_GT(r.checks_run(), 0u);
}

TEST(Verify, StaticTemporalGraphIsClean) {
  StaticLoadOptions o;
  o.scale = 1.0;
  o.num_timestamps = 8;
  o.feature_size = 4;
  auto ds = load_chickenpox(o);
  StaticTemporalGraph g(ds.num_nodes, ds.edges, ds.num_timestamps);
  verify::Report r = verify::check_graph(g);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Verify, NaiveGraphIsClean) {
  NaiveGraph g(tiny_dtdg());
  verify::Report r = verify::check_graph(g);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Verify, GpmaGraphCleanAfterIncrementalRolls) {
  GpmaGraph g(tiny_dtdg());
  const uint32_t T = g.num_timestamps();
  // Forward then backward, one delta replay per step, auditing at every
  // position, so the audit covers views rebuilt after each roll.
  verify::Report r;
  for (uint32_t t = 0; t < T; ++t) r.merge(verify::check_graph_at(g, t));
  for (uint32_t t = T; t-- > 0;) r.merge(verify::check_graph_at(g, t));
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(Verify, GpmaGraphCleanAfterStreamingAppend) {
  DtdgEvents ev = tiny_dtdg(40, 600, 7);
  GpmaGraph g(ev);
  (void)g.get_graph(g.num_timestamps() - 1);
  EdgeList head = ev.snapshot_edges(ev.num_timestamps() - 1);
  std::set<std::pair<uint32_t, uint32_t>> present(head.begin(), head.end());
  EdgeDelta d;
  for (uint32_t s = 0; s < 40 && d.additions.size() < 2; ++s)
    for (uint32_t t = 0; t < 40 && d.additions.size() < 2; ++t)
      if (!present.count({s, t})) d.additions.emplace_back(s, t);
  ASSERT_EQ(d.additions.size(), 2u);
  g.append_delta(d);
  verify::Report r = verify::check_graph_at(g, g.num_timestamps() - 1);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

// ---- seeded corruptions: every checker must fire ---------------------------

TEST(VerifyCorruption, FlippedRowOffsetFires) {
  HandGraph g;
  std::swap(g.in_ro[1], g.in_ro[2]);  // 0,1,2,4 -> 0,2,1,4: non-monotone
  verify::Report r = verify::check_csr(g.in_view(), "in_view");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_finding_from(r, "check_csr")) << r.to_string();
}

TEST(VerifyCorruption, RowOffsetSpanMismatchFires) {
  HandGraph g;
  g.in_ro[3] = 3;  // compact view must end exactly at m=4
  verify::Report r = verify::check_csr(g.in_view(), "in_view");
  EXPECT_FALSE(r.ok()) << "ro[n] != m not caught";
}

TEST(VerifyCorruption, ColumnOutOfBoundsFires) {
  HandGraph g;
  g.in_col[1] = 9;
  EXPECT_FALSE(verify::check_csr(g.in_view(), "in_view").ok());
}

TEST(VerifyCorruption, DuplicateEidFires) {
  HandGraph g;
  g.in_eid[0] = g.in_eid[1];  // eid 0 now appears twice, eid 3 never
  verify::Report r = verify::check_csr(g.in_view(), "in_view");
  EXPECT_FALSE(r.ok()) << r.to_string();
}

TEST(VerifyCorruption, SwappedEidsBreakTranspose) {
  HandGraph g;
  // Each view is still a valid CSR on its own, but the shared labels now
  // resolve to different edges in the two directions.
  std::swap(g.in_eid[1], g.in_eid[2]);
  EXPECT_TRUE(verify::check_csr(g.in_view(), "in_view").ok());
  verify::Report r = verify::check_transpose(g.in_view(), g.out_view());
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_finding_from(r, "check_transpose")) << r.to_string();
}

TEST(VerifyCorruption, WrongDegreeOrderFires) {
  HandGraph g;
  std::swap(g.fwd_order[0], g.fwd_order[2]);  // ascending degree now
  verify::Report r = verify::check_degree_order(g.fwd_order.data(),
                                                g.in_deg.data(), 3, "fwd");
  EXPECT_FALSE(r.ok()) << r.to_string();
}

TEST(VerifyCorruption, NonPermutationOrderFires) {
  HandGraph g;
  g.fwd_order = {2, 2, 1};  // vertex 0 missing, vertex 2 doubled
  verify::Report r = verify::check_degree_order(g.fwd_order.data(),
                                                g.in_deg.data(), 3, "fwd");
  EXPECT_FALSE(r.ok()) << r.to_string();
}

TEST(VerifyCorruption, TiedDegreeIdOrderFires) {
  // Vertices 0 and 1 have equal degree; canonical order requires 0 first.
  std::vector<uint32_t> deg{1, 1};
  std::vector<uint32_t> order{1, 0};
  EXPECT_FALSE(verify::check_degree_order(order.data(), deg.data(), 2, "x").ok());
  order = {0, 1};
  EXPECT_TRUE(verify::check_degree_order(order.data(), deg.data(), 2, "x").ok());
}

TEST(VerifyCorruption, WrongDegreeArrayFires) {
  HandGraph g;
  g.in_deg[2] = 1;  // row 2 really has 2 live in-neighbors
  EXPECT_FALSE(verify::check_degrees(g.in_view(), g.in_deg.data(), "in").ok());
}

TEST(VerifyCorruption, StaleCoefCacheFires) {
  HandGraph g;
  std::vector<float> coef(4);
  SnapshotView v = g.view();
  for (uint32_t dst = 0; dst < 3; ++dst)
    for (uint32_t j = g.in_ro[dst]; j < g.in_ro[dst + 1]; ++j)
      coef[g.in_eid[j]] = gcn_norm_coef(g.in_deg[g.in_col[j]], g.in_deg[dst]);
  v.gcn_coef = coef.data();
  EXPECT_TRUE(verify::check_gcn_coef(v).ok());
  coef[2] *= 1.0f + 1e-6f;  // stale by one ulp-ish nudge
  verify::Report r = verify::check_gcn_coef(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_finding_from(r, "check_gcn_coef")) << r.to_string();
}

TEST(VerifyCorruption, EdgeCountMismatchFires) {
  HandGraph g;
  SnapshotView v = g.view();
  v.num_edges = 3;  // views still say 4
  verify::Report r = verify::check_snapshot_view(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_finding_from(r, "check_snapshot_view")) << r.to_string();
}

TEST(VerifyCorruption, CorruptedPmaFires) {
  GpmaGraph g(tiny_dtdg(30, 400, 17));
  (void)g.get_graph(0);
  const Pma& pma = g.pma();
  EXPECT_TRUE(verify::check_pma(pma).ok());

  // Swap two live keys in place (const_cast: the PMA has no public
  // corruption surface, which is rather the point) — the sorted-order
  // invariant breaks and check_pma must say so. Swap back afterwards so
  // the graph object destructs over a sane structure.
  uint64_t* slots = const_cast<uint64_t*>(pma.slots().data());
  std::vector<uint32_t> live;
  for (std::size_t j = 0; j < pma.capacity() && live.size() < 2; ++j)
    if (slots[j] != Pma::kEmptyKey) live.push_back(static_cast<uint32_t>(j));
  ASSERT_EQ(live.size(), 2u);
  ASSERT_NE(slots[live[0]], slots[live[1]]);
  std::swap(slots[live[0]], slots[live[1]]);
  verify::Report r = verify::check_pma(pma);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has_finding_from(r, "check_pma")) << r.to_string();
  std::swap(slots[live[0]], slots[live[1]]);
  EXPECT_TRUE(verify::check_pma(pma).ok());
}

TEST(VerifyCorruption, PmaViewDisagreementFires) {
  GpmaGraph g(tiny_dtdg(30, 400, 3));
  SnapshotView v = g.get_graph(0);
  EXPECT_TRUE(verify::check_pma_view_agreement(g.pma(), v).ok());

  // Copy the gapped arrays, swap the dst of two live slots, and repoint the
  // view — the PMA slot keys no longer match the view's columns.
  const uint32_t cap = v.out_view.row_offset[v.out_view.num_nodes];
  std::vector<uint32_t> col(v.out_view.col_indices,
                            v.out_view.col_indices + cap);
  std::vector<uint32_t> live;
  for (uint32_t j = 0; j < cap && live.size() < 2; ++j)
    if (col[j] != kSpace) live.push_back(j);
  ASSERT_EQ(live.size(), 2u);
  // Guarantee an observable difference even if both slots held equal dsts.
  std::swap(col[live[0]], col[live[1]]);
  col[live[0]] ^= col[live[1]] == col[live[0]] ? 1u : 0u;
  SnapshotView bad = v;
  bad.out_view.col_indices = col.data();
  verify::Report r = verify::check_pma_view_agreement(g.pma(), bad);
  EXPECT_FALSE(r.ok()) << r.to_string();
}

TEST(VerifyCorruption, BadProgramFires) {
  using namespace compiler;
  Program p = trace([](VertexContext& v) -> AggExpr {
    return v.agg_sum(v.gcn_norm() * v.src_feature(0));
  });
  EXPECT_TRUE(verify::check_program(p).ok());

  Program out_of_range = p;
  out_of_range.terms[0].input = 7;  // only input 0 exists
  EXPECT_FALSE(verify::check_program(out_of_range).ok());

  Program bad_const = p;
  bad_const.terms[0].coefs.push_back(
      {CoefKind::kConst, std::numeric_limits<float>::quiet_NaN()});
  EXPECT_FALSE(verify::check_program(bad_const).ok());

  // Programs compile() rejects: more message terms than the engine grid
  // holds (on distinct inputs, so dedup_terms cannot merge them), and more
  // than 255 factors of one kind in a coefficient product.
  Program too_many_terms;
  for (int i = 0; i <= static_cast<int>(kMaxSpecializedTerms); ++i)
    too_many_terms.terms.push_back(
        MessageTerm{{Coef{CoefKind::kGcnNorm, 1.0f}}, i});
  EXPECT_THROW(compile(too_many_terms), StgError);
  EXPECT_FALSE(verify::check_program(too_many_terms).ok());

  Program too_many_factors = p;
  too_many_factors.terms[0].coefs.assign(256,
                                         Coef{CoefKind::kEdgeWeight, 1.0f});
  EXPECT_THROW(compile(too_many_factors), StgError);
  EXPECT_FALSE(verify::check_program(too_many_factors).ok());
}

TEST(VerifyCorruption, UnbalancedTraceFires) {
  // Balanced trace: clean.
  std::vector<std::string> good{
      "fwd t=0", "push graph t=0", "push state #0", "fwd t=1",
      "push graph t=1", "push state #1", "bwd t=1", "pop graph t=1",
      "pop state #1", "bwd t=0", "pop graph t=0", "pop state #0"};
  EXPECT_TRUE(verify::check_protocol_trace(good).ok());

  // Missing pop: both stacks end non-empty.
  std::vector<std::string> unbalanced(good.begin(), good.end() - 3);
  verify::Report r = verify::check_protocol_trace(unbalanced);
  EXPECT_FALSE(r.ok()) << r.to_string();

  // LIFO violation: graph popped out of order.
  std::vector<std::string> wrong_order{
      "push graph t=0", "push graph t=1", "pop graph t=0", "pop graph t=1"};
  EXPECT_FALSE(verify::check_protocol_trace(wrong_order).ok());

  // Abort clears both stacks: clean again.
  std::vector<std::string> aborted{
      "push graph t=0", "push state #0", "abort seq (state depth 1, graph depth 1)"};
  EXPECT_TRUE(verify::check_protocol_trace(aborted).ok());
}

TEST(VerifyCorruption, ExecutorTraceFromRealRunIsBalanced) {
  // Drive a real training epoch with the executor trace on and feed the
  // recorded events through the protocol checker.
  DtdgEvents ev = tiny_dtdg(40, 600, 21);
  GpmaGraph g(ev);
  DynamicLoadOptions o;
  o.feature_size = 4;
  o.link_samples_per_step = 16;
  TemporalSignal sig = make_dynamic_signal(ev, o);
  Rng rng(3);
  nn::TGCNEncoder model(o.feature_size, 8, rng);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 4;
  cfg.task = core::Task::kLinkPrediction;
  core::STGraphTrainer trainer(g, model, sig, cfg);
  std::vector<std::string> trace;
  trainer.executor().set_trace(&trace);
  trainer.train();
  trainer.executor().set_trace(nullptr);
  ASSERT_FALSE(trace.empty());
  verify::Report r = verify::check_protocol_trace(trace);
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(VerifyCorruption, UndrainedExecutorFires) {
  DtdgEvents ev = tiny_dtdg(20, 200, 5);
  GpmaGraph g(ev);
  core::TemporalExecutor ex(g);
  EXPECT_TRUE(verify::check_executor_drained(ex).ok());
  ex.state_stack().push({});
  verify::Report r = verify::check_executor_drained(ex);
  EXPECT_FALSE(r.ok()) << r.to_string();
  ex.state_stack().clear();
}

// ---- STGRAPH_VALIDATE wiring ----------------------------------------------

TEST(Validate, RequireOkThrowsWithReportText) {
  verify::Report r;
  r.fail("check_csr/in_view", "row_offset not monotone at row 3");
  try {
    verify::require_ok(r, "unit test");
    FAIL() << "require_ok did not throw";
  } catch (const StgError& e) {
    EXPECT_NE(std::string(e.what()).find("check_csr/in_view"),
              std::string::npos)
        << e.what();
  }
}

TEST(Validate, TrainingSequenceRunsCleanUnderValidation) {
  const bool was = verify::validation_enabled();
  verify::set_validation_enabled(true);
  {
    // GPMA + the trainer's per-sequence audit: every
    // refresh_views() along the way now runs the full analyzer and throws
    // on the first violation.
    DtdgEvents ev = tiny_dtdg(40, 600, 11);
    GpmaGraph g(ev);
    DynamicLoadOptions o;
    o.feature_size = 4;
    o.link_samples_per_step = 16;
    TemporalSignal sig = make_dynamic_signal(ev, o);
    Rng rng(9);
    nn::TGCNEncoder model(o.feature_size, 8, rng);
    core::TrainConfig cfg;
    cfg.epochs = 1;
    cfg.sequence_length = 4;
    cfg.task = core::Task::kLinkPrediction;
    core::STGraphTrainer trainer(g, model, sig, cfg);
    EXPECT_NO_THROW(trainer.train());
  }
  {
    // Streaming append path under validation. Pick an addition that is
    // genuinely absent from the head snapshot (append rejects re-adds).
    DtdgEvents ev = tiny_dtdg(30, 300, 2);
    NaiveGraph g(ev);
    EdgeList head = ev.snapshot_edges(ev.num_timestamps() - 1);
    std::set<std::pair<uint32_t, uint32_t>> present(head.begin(), head.end());
    EdgeDelta d;
    for (uint32_t s = 0; s < 30 && d.additions.empty(); ++s)
      for (uint32_t t = 0; t < 30 && d.additions.empty(); ++t)
        if (!present.count({s, t})) d.additions = {{s, t}};
    ASSERT_FALSE(d.additions.empty());
    EXPECT_NO_THROW(g.append_delta(d));
  }
  verify::set_validation_enabled(was);
}

}  // namespace
}  // namespace stgraph
