// Serving subsystem tests: bit-exact parity between serve::Server and the
// trainer's export-for-serving reference pass, snapshot install/swap
// semantics, delta validation and fault injection (a failed delta must
// leave the read view on the previous consistent snapshot), micro-batch
// dispatch failure handling, and the stats/histogram/queue building blocks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/naive_graph.hpp"
#include "nn/models.hpp"
#include "serve/request_queue.hpp"
#include "serve/server.hpp"
#include "serve/stats.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

constexpr int64_t kFeat = 6;
constexpr int64_t kHidden = 8;
// Per-process paths: ctest runs every case of this binary as its own
// process, concurrently under -j.
const std::string kCkptFile =
    "/tmp/stgraph_test_serve_" + std::to_string(::getpid()) + ".stgt";
const char* kCkpt = kCkptFile.c_str();

DtdgEvents tiny_events() {
  DtdgEvents ev;
  ev.num_nodes = 10;
  for (uint32_t i = 0; i < 10; ++i)
    ev.base_edges.emplace_back(i, (i + 1) % 10);  // directed ring
  EdgeDelta d1;
  d1.additions = {{0, 5}, {1, 6}, {2, 7}};
  EdgeDelta d2;
  d2.deletions = {{0, 1}, {1, 2}};
  d2.additions = {{1, 0}, {2, 1}};
  EdgeDelta d3;
  d3.additions = {{3, 8}, {4, 9}};
  d3.deletions = {{2, 7}};
  ev.deltas = {d1, d2, d3};
  return ev;
}

datasets::DynamicLoadOptions signal_opts() {
  datasets::DynamicLoadOptions opts;
  opts.feature_size = kFeat;
  opts.link_samples_per_step = 16;
  return opts;
}

DtdgEvents base_only(const DtdgEvents& ev) {
  return DtdgEvents{ev.num_nodes, ev.base_edges, {}};
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b,
                          const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * sizeof(float)),
            0)
      << what << ": outputs are not bit-identical";
}

/// Train a TGCNEncoder on the full event timeline, checkpoint it, and
/// return the trainer's forward-only reference outputs per timestamp.
std::vector<Tensor> train_and_checkpoint(const DtdgEvents& events,
                                         const datasets::TemporalSignal& sig) {
  GpmaGraph graph(events);
  Rng rng(3);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.sequence_length = 4;
  cfg.lr = 2e-2f;
  cfg.task = core::Task::kLinkPrediction;
  core::STGraphTrainer trainer(graph, model, sig, cfg);
  trainer.train();
  trainer.save_checkpoint(kCkpt);
  return trainer.evaluate_outputs();
}

class ServeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::disable_all();
    std::remove(kCkpt);
  }
};

/// Drive a freshly-checkpointed model through a server that starts from the
/// base snapshot only and streams the deltas in; every predict() must be
/// bit-identical to the trainer's reference pass at the same timestamp.
void run_parity(STGraphBase& graph, const DtdgEvents& events,
                const datasets::TemporalSignal& sig,
                const std::vector<Tensor>& ref) {
  Rng rng(999);  // weights are overwritten by the checkpoint
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.load(kCkpt);
  server.start(sig.features[0]);
  const auto T = static_cast<uint32_t>(ref.size());
  for (uint32_t t = 0; t < T; ++t) {
    serve::PredictResult full = server.predict();
    EXPECT_EQ(full.timestamp, t);
    expect_bitwise_equal(full.outputs, ref[t],
                         "t=" + std::to_string(t) + " on " +
                             graph.format_name());
    if (t + 1 < T) server.ingest(events.deltas[t], sig.features[t + 1]);
  }
  server.stop();
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.requests, T);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.deltas_applied, T - 1);
}

TEST_F(ServeTest, PredictMatchesTrainerEvaluateOutputsBitExactOnGpma) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  const std::vector<Tensor> ref = train_and_checkpoint(events, sig);
  ASSERT_EQ(ref.size(), events.num_timestamps());
  GpmaGraph graph(base_only(events));
  run_parity(graph, events, sig, ref);
}

TEST_F(ServeTest, PredictMatchesTrainerEvaluateOutputsBitExactOnNaive) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  const std::vector<Tensor> ref = train_and_checkpoint(events, sig);
  NaiveGraph graph(base_only(events));
  run_parity(graph, events, sig, ref);
}

TEST_F(ServeTest, SubsetPredictGathersRowsOfTheFullOutput) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);
  serve::PredictResult full = server.predict();
  serve::PredictResult sub = server.predict({7, 2, 2});
  ASSERT_EQ(sub.outputs.rows(), 3);
  ASSERT_EQ(sub.outputs.cols(), full.outputs.cols());
  const std::vector<uint32_t> want = {7, 2, 2};
  for (std::size_t i = 0; i < want.size(); ++i)
    for (int64_t c = 0; c < full.outputs.cols(); ++c)
      EXPECT_EQ(sub.outputs.data()[i * full.outputs.cols() + c],
                full.outputs.data()[want[i] * full.outputs.cols() + c]);
  // Both rode the same cached forward pass (one fresh execution total).
  EXPECT_EQ(server.stats().forward_passes, 1u);
  server.stop();
}

TEST_F(ServeTest, LiveSnapshotInstallSwapsWeightsAndBumpsVersion) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  train_and_checkpoint(events, sig);

  GpmaGraph graph(base_only(events));
  Rng rng(17);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.load(kCkpt);
  server.start(sig.features[0]);
  const serve::PredictResult before = server.predict();

  // A differently-initialized model produces a second, distinct snapshot.
  Rng rng2(4242);
  nn::TGCNEncoder other(kFeat, kHidden, rng2);
  io::TrainState st;
  st.params = other.parameters();
  auto snap =
      std::make_shared<const serve::ModelSnapshot>(
          serve::ModelSnapshot::from_train_state(st));
  server.install(snap);
  EXPECT_EQ(server.snapshot(), snap);

  const serve::PredictResult after = server.predict();
  EXPECT_GT(after.version, before.version);
  EXPECT_EQ(after.timestamp, before.timestamp);  // time did not move
  bool any_diff = false;
  for (int64_t i = 0; i < after.outputs.numel(); ++i)
    any_diff |= after.outputs.data()[i] != before.outputs.data()[i];
  EXPECT_TRUE(any_diff) << "swapped weights must change the outputs";
  server.stop();
  EXPECT_EQ(server.stats().snapshot_swaps, 2u);
}

TEST_F(ServeTest, CheckpointLoadFailpointPropagates) {
  const DtdgEvents events = tiny_events();
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  failpoint::enable("serve.checkpoint.load", failpoint::Spec::always());
  EXPECT_THROW(server.load("/tmp/does_not_matter.stgt"), StgError);
}

TEST_F(ServeTest, FailedDeltaApplyLeavesReadViewOnPreviousSnapshot) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);
  const serve::PredictResult before = server.predict();
  const serve::ReadView view0 = server.read_view();

  failpoint::enable("serve.delta.apply", failpoint::Spec::once());
  EXPECT_THROW(server.ingest(events.deltas[0], sig.features[1]), StgError);

  // The read view and the graph are still the previous consistent snapshot.
  const serve::ReadView view1 = server.read_view();
  EXPECT_EQ(view1.time, view0.time);
  EXPECT_EQ(view1.version, view0.version);
  EXPECT_EQ(view1.num_edges, view0.num_edges);
  EXPECT_EQ(graph.num_timestamps(), 1u);
  const serve::PredictResult still = server.predict();
  expect_bitwise_equal(still.outputs, before.outputs,
                       "predict after failed ingest");

  // The same delta applies cleanly once the fault is gone.
  server.ingest(events.deltas[0], sig.features[1]);
  EXPECT_EQ(server.read_view().time, 1u);
  EXPECT_EQ(graph.num_timestamps(), 2u);
  server.stop();
}

TEST_F(ServeTest, InvalidDeltasAreRejectedBeforeAnyMutation) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);
  const serve::ReadView view0 = server.read_view();

  EdgeDelta missing_del;
  missing_del.deletions = {{5, 0}};  // ring has (5,6), not (5,0)
  EXPECT_THROW(server.ingest(missing_del, sig.features[1]), StgError);

  EdgeDelta readd;
  readd.additions = {{0, 1}};  // already present in the base ring
  EXPECT_THROW(server.ingest(readd, sig.features[1]), StgError);

  EdgeDelta oob;
  oob.additions = {{0, 99}};
  EXPECT_THROW(server.ingest(oob, sig.features[1]), StgError);

  EdgeDelta dup;
  dup.additions = {{0, 4}, {0, 4}};
  EXPECT_THROW(server.ingest(dup, sig.features[1]), StgError);

  EXPECT_EQ(server.read_view().version, view0.version);
  EXPECT_EQ(graph.num_timestamps(), 1u);

  server.ingest(events.deltas[0], sig.features[1]);  // valid delta still lands
  EXPECT_EQ(server.read_view().time, 1u);
  server.stop();
}

TEST_F(ServeTest, BatchDispatchFailpointFailsTheBatchButServingContinues) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);

  failpoint::enable("serve.batch.dispatch", failpoint::Spec::once());
  EXPECT_THROW(server.predict(), StgError);
  const serve::PredictResult ok = server.predict();  // next batch is fine
  EXPECT_EQ(ok.outputs.rows(), 10);
  server.stop();
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.requests, 1u);
}

TEST_F(ServeTest, OutOfRangePredictNodeFailsTheRequestNotTheServer) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::ServeConfig cfg;
  cfg.circuit_failure_threshold = 2;
  cfg.circuit_cooldown_ms = 60000;
  serve::Server server(graph, model, cfg);
  server.start(sig.features[0]);
  // Bad node ids are a client error, not an execution fault: repeated
  // offenders must not accumulate circuit-breaker failures and push the
  // server into stale-serving for everyone else.
  EXPECT_THROW(server.predict({12345}), StgError);
  EXPECT_THROW(server.predict({12345}), StgError);
  EXPECT_THROW(server.predict({12345}), StgError);
  EXPECT_EQ(server.health(), serve::HealthState::kHealthy);
  const serve::PredictResult ok = server.predict({3});
  EXPECT_EQ(ok.outputs.rows(), 1);
  EXPECT_FALSE(ok.stale);
  server.stop();
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.circuit_trips, 0u);
  EXPECT_EQ(report.failed, 3u);
}

TEST_F(ServeTest, StoppedServerRejectsPredictAndIngest) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  EXPECT_THROW(server.predict(), StgError);  // never started
  server.start(sig.features[0]);
  server.predict();
  server.stop();
  EXPECT_THROW(server.predict(), StgError);
  EXPECT_THROW(server.ingest(events.deltas[0], sig.features[1]), StgError);
}

TEST_F(ServeTest, EmptyDeltaExtendsAnAppendableTimeline) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);
  const uint32_t edges_before = server.read_view().num_edges;
  server.ingest(EdgeDelta{}, sig.features[1]);
  EXPECT_EQ(server.read_view().time, 1u);
  EXPECT_EQ(server.read_view().num_edges, edges_before);
  EXPECT_EQ(graph.num_timestamps(), 2u);
  EXPECT_EQ(graph.num_edges_at(1), graph.num_edges_at(0));
  server.stop();
}

TEST_F(ServeTest, CircuitBreakerTripsServesStaleAndClosesOnSuccess) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::ServeConfig cfg;
  cfg.circuit_failure_threshold = 2;
  cfg.circuit_cooldown_ms = 60000;  // no half-open probe during this test
  serve::Server server(graph, model, cfg);
  server.start(sig.features[0]);
  EXPECT_EQ(server.health(), serve::HealthState::kHealthy);
  const serve::PredictResult good = server.predict();  // primes last-good
  EXPECT_FALSE(good.stale);

  failpoint::enable("serve.batch.dispatch", failpoint::Spec::always());
  EXPECT_THROW(server.predict(), StgError);  // consecutive failure 1
  EXPECT_THROW(server.predict(), StgError);  // failure 2 — circuit opens
  EXPECT_EQ(server.health(), serve::HealthState::kDegraded);

  // Open circuit: predicts divert to the last-good step, version-tagged
  // stale, without touching the (still failing) execution path.
  const serve::PredictResult stale = server.predict();
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.version, good.version);
  EXPECT_EQ(stale.timestamp, good.timestamp);
  expect_bitwise_equal(stale.outputs, good.outputs, "stale full read");
  const serve::PredictResult sub = server.predict({4, 1});
  EXPECT_TRUE(sub.stale);
  ASSERT_EQ(sub.outputs.rows(), 2);

  // A successful forward (here via ingest, which runs the same step)
  // closes the circuit and restores HEALTHY.
  failpoint::disable_all();
  server.ingest(events.deltas[0], sig.features[1]);
  EXPECT_EQ(server.health(), serve::HealthState::kHealthy);
  const serve::PredictResult fresh = server.predict();
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(fresh.timestamp, 1u);

  server.stop();
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.circuit_trips, 1u);
  EXPECT_EQ(report.stale_served, 2u);
  EXPECT_EQ(report.failed, 2u);
  EXPECT_EQ(report.requests, 2u);  // the pre-trip and post-close predicts
}

TEST_F(ServeTest, NonFiniteOutputsFailTheBatchInsteadOfServingPoison) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);

  failpoint::enable("serve.step.poison", failpoint::Spec::once());
  EXPECT_THROW(server.predict(), StgError);  // NaN scan rejects the step
  const serve::PredictResult ok = server.predict();  // cache was dropped
  EXPECT_FALSE(ok.stale);
  for (int64_t i = 0; i < ok.outputs.numel(); ++i)
    ASSERT_TRUE(std::isfinite(ok.outputs.data()[i]));
  server.stop();
  EXPECT_EQ(server.stats().failed, 1u);
}

TEST_F(ServeTest, ShedsAreTypedCountedAndAccountedInTheReport) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  GpmaGraph graph(base_only(events));
  Rng rng(5);
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  EXPECT_EQ(server.health(), serve::HealthState::kStarting);

  // Rejections off a non-running server are typed draining sheds.
  try {
    server.predict();
    FAIL() << "predict on a stopped server must throw";
  } catch (const serve::ShedError& e) {
    EXPECT_EQ(e.reason(), serve::ShedReason::kDraining);
  }
  server.start(sig.features[0]);
  server.predict();
  server.stop();
  EXPECT_THROW(server.predict(), serve::ShedError);
  EXPECT_THROW(server.ingest(events.deltas[0], sig.features[1]),
               serve::ShedError);

  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.shed_draining, 3u);
  EXPECT_EQ(report.shed_total, 3u);
  EXPECT_EQ(report.rejected, report.shed_total);  // back-compat alias
  EXPECT_EQ(report.requests, 1u);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"shed\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_expired\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

// ---- building blocks ------------------------------------------------------

TEST(TenantQueueSet, BoundedPushPopAndClose) {
  using Push = serve::TenantQueueSet::PushResult;
  serve::TenantQueueSet q({}, 2);  // single default lane, capacity 2
  EXPECT_EQ(q.num_lanes(), 1u);
  serve::PredictRequest a, b, c;
  EXPECT_EQ(q.push(std::move(a)), Push::kOk);
  EXPECT_EQ(q.push(std::move(b)), Push::kOk);
  EXPECT_EQ(q.push(std::move(c)), Push::kFull);  // full: load shed
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.max_depth(), 2u);

  EXPECT_EQ(q.pop_batch(8).size(), 2u);  // drains up to max_batch
  q.close();
  EXPECT_TRUE(q.pop_batch(8).empty());  // closed and drained
  serve::PredictRequest d;
  EXPECT_EQ(q.push(std::move(d)), Push::kClosed);  // draining
  q.reopen();
  serve::PredictRequest e;
  EXPECT_EQ(q.push(std::move(e)), Push::kOk);
}

TEST(TenantQueueSet, WeightedRoundRobinSharesDequeues) {
  // Tenant 7 has 3× the weight of tenant 9: under saturation a batch
  // alternates 3-from-7, 1-from-9.
  serve::TenantQueueSet q(
      {serve::TenantLane{7, 3, 0}, serve::TenantLane{9, 1, 0}}, 16);
  EXPECT_EQ(q.num_lanes(), 2u);
  EXPECT_EQ(q.lane_of(7), 0u);
  EXPECT_EQ(q.lane_of(9), 1u);
  EXPECT_EQ(q.lane_of(12345), 0u);  // unknown tenants share the first lane
  for (int i = 0; i < 8; ++i) {
    serve::PredictRequest r;
    r.tenant = (i % 2) ? 9 : 7;
    r.tenant_slot = q.lane_of(r.tenant);
    ASSERT_EQ(q.push(std::move(r)), serve::TenantQueueSet::PushResult::kOk);
  }
  EXPECT_EQ(q.lane_depth(0), 4u);
  EXPECT_EQ(q.lane_depth(1), 4u);
  const std::vector<serve::PredictRequest> batch = q.pop_batch(4);
  ASSERT_EQ(batch.size(), 4u);
  int from7 = 0, from9 = 0;
  for (const auto& r : batch) (r.tenant == 7 ? from7 : from9)++;
  EXPECT_EQ(from7, 3);
  EXPECT_EQ(from9, 1);
  // Second batch drains the remainder, still interleaving by weight: one
  // leftover from tenant 7, then tenant 9's backlog — the low-weight lane
  // is never starved once the heavy lane empties.
  const std::vector<serve::PredictRequest> rest = q.pop_batch(16);
  ASSERT_EQ(rest.size(), 4u);
  from7 = from9 = 0;
  for (const auto& r : rest) (r.tenant == 7 ? from7 : from9)++;
  EXPECT_EQ(from7, 1);
  EXPECT_EQ(from9, 3);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(LatencyHistogram, MergeIsAssociativeAndQuantileStable) {
  // The same 100 samples recorded whole vs sharded across three
  // histograms (the per-reader layout) and merged in two different
  // orders: counts, buckets and every percentile must agree.
  serve::LatencyHistogram whole, a, b, c;
  for (int i = 0; i < 50; ++i) { whole.record(100.0); a.record(100.0); }
  for (int i = 0; i < 48; ++i) { whole.record(100.0); b.record(100.0); }
  whole.record(5000.0);
  b.record(5000.0);
  whole.record(70000.0);
  c.record(70000.0);

  serve::LatencyHistogram ab_c;  // (a + b) + c
  ab_c.merge(a);
  ab_c.merge(b);
  ab_c.merge(c);
  serve::LatencyHistogram c_ba;  // c + (b + a)
  c_ba.merge(c);
  c_ba.merge(b);
  c_ba.merge(a);

  for (const auto* m : {&ab_c, &c_ba}) {
    EXPECT_EQ(m->count(), whole.count());
    EXPECT_EQ(m->percentile(50), whole.percentile(50));
    EXPECT_EQ(m->percentile(99), whole.percentile(99));
    EXPECT_EQ(m->percentile(100), whole.percentile(100));
    EXPECT_EQ(m->max_micros(), whole.max_micros());
    EXPECT_NEAR(m->mean_micros(), whole.mean_micros(), 1e-9);
    for (std::size_t bkt = 0; bkt < serve::LatencyHistogram::kBuckets; ++bkt)
      EXPECT_EQ(m->bucket_count(bkt), whole.bucket_count(bkt));
  }
}

TEST(ServerStats, PerTenantAccountingIdentityHolds) {
  serve::ServerStats stats;
  stats.configure({1, 2}, 2);
  // Tenant slot 0 (id 1): 3 issued = 1 fulfilled + 1 stale + 1 shed.
  stats.record_issued(0);
  stats.record_issued(0);
  stats.record_issued(0);
  stats.record_request(10.0, 1, 0, /*reader=*/0);
  stats.record_stale_served(10.0, 1, 0);
  stats.record_shed(serve::ShedReason::kQueueFull, 1, 0);
  // Tenant slot 1 (id 2): 2 issued = 1 failed + 1 shed.
  stats.record_issued(1);
  stats.record_issued(1);
  stats.record_failed(1, 1);
  stats.record_shed(serve::ShedReason::kDeadlineExpired, 1, 1);
  // Ingest-path sheds are global-only: no tenant identity is polluted.
  stats.record_shed(serve::ShedReason::kQueueFull, 1,
                    serve::ServerStats::kNoTenant);

  const serve::StatsReport r = stats.report(0);
  ASSERT_EQ(r.tenants.size(), 2u);
  for (const auto& t : r.tenants)
    EXPECT_EQ(t.issued, t.requests + t.stale_served + t.failed + t.shed_total)
        << "tenant " << t.id;
  EXPECT_EQ(r.tenants[0].id, 1u);
  EXPECT_EQ(r.tenants[0].issued, 3u);
  EXPECT_EQ(r.tenants[1].failed, 1u);
  EXPECT_EQ(r.tenants[1].shed_deadline_expired, 1u);
  EXPECT_EQ(r.shed_queue_full, 2u);  // tenant + ingest-path shed
  EXPECT_EQ(r.reader_threads, 2u);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"tenants\""), std::string::npos);
  EXPECT_NE(json.find("\"reader_utilization\""), std::string::npos);
}

TEST(LatencyHistogram, PercentilesLandInPowerOfTwoBuckets) {
  serve::LatencyHistogram h;
  EXPECT_EQ(h.percentile(99), 0.0);  // empty
  for (int i = 0; i < 98; ++i) h.record(100.0);   // bucket [64,128)
  h.record(5000.0);                               // bucket [4096,8192)
  h.record(70000.0);                              // bucket [65536,131072)
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(50), 128.0);
  EXPECT_EQ(h.percentile(99), 8192.0);
  EXPECT_EQ(h.percentile(100), 131072.0);
  EXPECT_EQ(h.max_micros(), 70000.0);
  EXPECT_NEAR(h.mean_micros(), (98 * 100.0 + 5000.0 + 70000.0) / 100.0, 1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0.0);
}

TEST(ServerStatsReport, JsonCarriesTheCounters) {
  serve::ServerStats stats;
  stats.record_request(100.0, 10);
  stats.record_batch(1);
  stats.record_forward(0.5);
  stats.record_ingest(12, 0.25);
  const serve::StatsReport r = stats.report(3);
  EXPECT_EQ(r.requests, 1u);
  EXPECT_EQ(r.deltas_applied, 1u);
  EXPECT_DOUBLE_EQ(r.delta_edges_per_sec, 48.0);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"requests\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"delta_edges_per_sec\": 48"), std::string::npos);
  EXPECT_NE(json.find("\"max_queue_depth\": 3"), std::string::npos);
}

}  // namespace
}  // namespace stgraph
