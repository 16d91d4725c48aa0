// Multi-threaded serving tests: client threads hammer predict() while
// another thread streams deltas through ingest(). Run under
// `./run_all.sh sanitize` these double as the data-race check for the
// serve subsystem. Invariants checked:
//   * every request is answered exactly once (fulfilled or rejected),
//   * each thread observes non-decreasing (version, timestamp) pairs,
//   * outputs are finite and correctly shaped throughout the churn,
//   * the final read view reflects every applied delta,
//   * deadline expiry under slow batches is a typed shed and the stats
//     classify every request exactly once (the accounting identity, read
//     from the StatsReport alone),
//   * stop() promptly rejects parked waiters with the draining error.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace stgraph {
namespace {

/// Every predict issued landed in exactly one bucket; ingest sheds are
/// reported apart. Holds once the server is stopped.
void expect_accounted(const serve::StatsReport& r) {
  EXPECT_EQ(r.issued, r.requests + r.stale_served + r.failed +
                          (r.shed_total - r.ingest_shed));
}

TEST(ServeMt, ConcurrentPredictAndIngestStaysConsistent) {
  datasets::DynamicLoadOptions opts;
  opts.scale = 0.01;
  opts.feature_size = 8;
  opts.link_samples_per_step = 16;
  datasets::DynamicDataset ds = datasets::load_sx_mathoverflow(opts);
  const DtdgEvents events = datasets::make_dtdg(ds, /*percent_change=*/5.0);
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, opts);
  ASSERT_GE(events.num_timestamps(), 10u);

  GpmaGraph graph(DtdgEvents{ds.num_nodes, events.base_edges, {}});
  Rng rng(21);
  nn::TGCNEncoder model(opts.feature_size, 16, rng);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.queue_capacity = 4096;  // roomy: this test wants zero load shedding
  serve::Server server(graph, model, cfg);
  server.start(sig.features[0]);

  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kPerThread = 64;
  std::atomic<uint64_t> fulfilled{0};
  std::atomic<uint64_t> failures{0};
  auto client = [&](uint32_t id) {
    Rng crng(100 + id);
    uint64_t last_version = 0;
    uint32_t last_time = 0;
    for (uint32_t i = 0; i < kPerThread; ++i) {
      std::vector<uint32_t> nodes;
      if (i % 2 == 0)
        nodes.push_back(static_cast<uint32_t>(crng.next_below(ds.num_nodes)));
      serve::PredictResult res;
      try {
        res = server.predict(std::move(nodes));
      } catch (const StgError&) {
        failures.fetch_add(1);
        continue;
      }
      // Versions and time move forward only, per observer.
      EXPECT_GE(res.version, last_version);
      if (res.version == last_version) {
        EXPECT_EQ(res.timestamp, last_time);
      }
      last_version = res.version;
      last_time = res.timestamp;
      EXPECT_EQ(res.outputs.rows(), i % 2 == 0 ? 1 : ds.num_nodes);
      for (int64_t j = 0; j < res.outputs.numel(); ++j)
        ASSERT_TRUE(std::isfinite(res.outputs.data()[j]))
            << "non-finite output under concurrent ingest";
      fulfilled.fetch_add(1);
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kThreads; ++i) threads.emplace_back(client, i);

  const uint32_t deltas = events.num_timestamps() - 1;
  for (uint32_t t = 1; t <= deltas; ++t) {
    server.ingest(events.deltas[t - 1], sig.features[t]);
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  const serve::ReadView view = server.read_view();
  server.stop();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(fulfilled.load(), kThreads * kPerThread);
  EXPECT_EQ(view.time, deltas);
  // version = start(1) + one per ingest
  EXPECT_EQ(view.version, 1u + deltas);
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.requests, kThreads * kPerThread);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.deltas_applied, deltas);
  expect_accounted(report);
  // Micro-batching must have actually batched or cached: the number of
  // forward passes cannot exceed one per (version) plus one per ingest.
  EXPECT_LE(report.forward_passes, 2u * (deltas + 1));
}

TEST(ServeMt, DeadlineExpiryUnderConcurrencyClassifiesEveryRequestOnce) {
  DtdgEvents ev;
  ev.num_nodes = 8;
  for (uint32_t i = 0; i < 8; ++i) ev.base_edges.emplace_back(i, (i + 1) % 8);
  datasets::DynamicLoadOptions opts;
  opts.feature_size = 4;
  opts.link_samples_per_step = 8;
  const datasets::TemporalSignal sig = datasets::make_dynamic_signal(ev, opts);

  GpmaGraph graph(ev);
  Rng rng(13);
  nn::TGCNEncoder model(4, 8, rng);
  serve::ServeConfig cfg;
  cfg.max_batch = 1;             // serialize batches so queues actually form
  cfg.watchdog_interval_ms = 0;  // keep the schedule down to two threads
  serve::Server server(graph, model, cfg);
  server.start(sig.features[0]);

  // Phase 1: every batch takes >= 50ms (injected delay) but clients only
  // budget 5ms — nothing can legally be fulfilled. Expiry fires at
  // admission (EWMA), at dequeue, or at completion; each is the same typed
  // shed, and every request resolves exactly once.
  failpoint::enable("serve.batch.delay", failpoint::Spec::always());
  constexpr uint32_t kThreads = 3;
  constexpr uint32_t kOps = 6;
  std::atomic<uint64_t> fulfilled{0};
  std::atomic<uint64_t> expired{0};
  std::atomic<uint64_t> other_shed{0};
  std::atomic<uint64_t> errored{0};
  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; ++tid)
    threads.emplace_back([&, tid] {
      for (uint32_t k = 0; k < kOps; ++k) {
        try {
          server.predict({(tid + k) % 8}, std::chrono::milliseconds(5));
          fulfilled.fetch_add(1);
        } catch (const serve::ShedError& e) {
          if (e.reason() == serve::ShedReason::kDeadlineExpired)
            expired.fetch_add(1);
          else
            other_shed.fetch_add(1);
        } catch (const StgError&) {
          errored.fetch_add(1);
        }
      }
    });
  for (auto& th : threads) th.join();
  failpoint::disable_all();

  EXPECT_EQ(fulfilled.load(), 0u);  // 50ms floor vs 5ms budget
  EXPECT_GE(expired.load(), 1u);
  EXPECT_EQ(fulfilled.load() + expired.load() + other_shed.load() +
                errored.load(),
            kThreads * kOps);

  // Phase 2: same server, generous budgets — requests succeed again (the
  // delay EWMA must not keep shedding once the overload clears).
  uint64_t ok = 0;
  for (uint32_t k = 0; k < 10; ++k) {
    const serve::PredictResult res =
        server.predict({k % 8}, std::chrono::seconds(5));
    EXPECT_FALSE(res.stale);
    ++ok;
  }
  server.stop();

  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.requests, fulfilled.load() + ok);
  EXPECT_EQ(report.shed_deadline_expired, expired.load());
  EXPECT_EQ(report.shed_total,
            expired.load() + other_shed.load());
  EXPECT_EQ(report.failed, errored.load());
  // Full accounting: everything issued landed in exactly one bucket.
  EXPECT_EQ(report.issued, kThreads * kOps + ok);
  EXPECT_EQ(report.ingest_shed, 0u);
  expect_accounted(report);
}

TEST(ServeMt, StopRejectsParkedWaitersPromptlyWithTypedDrainingError) {
  DtdgEvents ev;
  ev.num_nodes = 8;
  for (uint32_t i = 0; i < 8; ++i) ev.base_edges.emplace_back(i, (i + 1) % 8);
  datasets::DynamicLoadOptions opts;
  opts.feature_size = 4;
  opts.link_samples_per_step = 8;
  const datasets::TemporalSignal sig = datasets::make_dynamic_signal(ev, opts);

  GpmaGraph graph(ev);
  Rng rng(29);
  nn::TGCNEncoder model(4, 8, rng);
  serve::ServeConfig cfg;
  cfg.max_batch = 1;  // one request per 50ms batch: the rest park in queue
  serve::Server server(graph, model, cfg);
  server.start(sig.features[0]);
  failpoint::enable("serve.batch.delay", failpoint::Spec::always());

  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kOps = 3;
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> draining_errs{0};
  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; ++tid)
    threads.emplace_back([&, tid] {
      for (uint32_t k = 0; k < kOps; ++k) {
        try {
          server.predict({tid});
        } catch (const serve::ShedError& e) {
          if (e.reason() == serve::ShedReason::kDraining) {
            draining_errs.fetch_add(1);
          }
        } catch (const StgError&) {
        }
        resolved.fetch_add(1);
      }
    });

  // Let requests pile up behind the slowed batcher, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Timer stop_timer;
  server.stop();
  const double stop_seconds = stop_timer.seconds();
  for (auto& th : threads) th.join();
  failpoint::disable_all();

  // Every request resolved — none left parked on a promise — and stop()
  // did not wait out the whole backlog at 50ms per queued request.
  EXPECT_EQ(resolved.load(), kThreads * kOps);
  EXPECT_GE(draining_errs.load(), 1u);
  EXPECT_LT(stop_seconds, 5.0);
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.shed_draining, draining_errs.load());
  EXPECT_EQ(report.issued, kThreads * kOps);
  expect_accounted(report);
  EXPECT_EQ(report.health, "starting");  // back to cold after a full stop
}

TEST(ServeMt, StopWhileClientsAreInFlightDrainsGracefully) {
  DtdgEvents ev;
  ev.num_nodes = 8;
  for (uint32_t i = 0; i < 8; ++i) ev.base_edges.emplace_back(i, (i + 1) % 8);
  datasets::DynamicLoadOptions opts;
  opts.feature_size = 4;
  opts.link_samples_per_step = 8;
  const datasets::TemporalSignal sig = datasets::make_dynamic_signal(ev, opts);

  GpmaGraph graph(ev);
  Rng rng(9);
  nn::TGCNEncoder model(4, 8, rng);
  serve::Server server(graph, model);
  server.start(sig.features[0]);

  std::atomic<uint64_t> answered{0};  // fulfilled OR cleanly rejected
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < 3; ++i)
    threads.emplace_back([&] {
      for (uint32_t k = 0; k < 200; ++k) {
        try {
          server.predict({k % 8});
        } catch (const StgError&) {
          // shutdown race: rejected-at-push or drained with an error —
          // either way the request must resolve, never hang.
        }
        answered.fetch_add(1);
      }
    });
  server.predict();  // make sure serving is actually underway
  server.stop();
  for (auto& th : threads) th.join();
  EXPECT_EQ(answered.load(), 600u);
  const serve::StatsReport report = server.stats();
  EXPECT_EQ(report.issued, 601u);
  expect_accounted(report);
}

}  // namespace
}  // namespace stgraph
