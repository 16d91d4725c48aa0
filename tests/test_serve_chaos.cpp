// Chaos harness for the serving runtime: randomized failpoint schedules +
// concurrent load + forced process kills, driven by a deterministic seed
// (STGRAPH_CHAOS_SEED, default 1 — `run_all.sh chaos` sweeps a fixed seed
// set). Invariants, regardless of schedule:
//   * no client ever hangs — every predict()/ingest() resolves (fulfilled,
//     stale, typed shed, or error),
//   * the stats account for every request exactly once:
//       issued == requests + stale_served + failed + shed_total,
//   * the server never publishes a torn read view: version/time move
//     forward only and the final view matches the committed ingests,
//   * after SIGKILL mid-stream, recover(checkpoint, wal) republishes a
//     read view bit-identical to a reference run of the same committed
//     prefix.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "io/train_state.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "serve/wal.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"

namespace stgraph {
namespace {

constexpr int64_t kFeat = 5;
constexpr int64_t kHidden = 8;
constexpr uint32_t kNodes = 12;
// Per-process paths: ctest runs every case of this binary as its own
// process, concurrently under -j.
const std::string kWalFile =
    "/tmp/stgraph_test_chaos_" + std::to_string(::getpid()) + ".stgw";
const char* kWal = kWalFile.c_str();
const std::string kCkptFile =
    "/tmp/stgraph_test_chaos_" + std::to_string(::getpid()) + ".stgt";
const char* kCkpt = kCkptFile.c_str();

uint64_t chaos_seed() {
  const char* env = std::getenv("STGRAPH_CHAOS_SEED");
  return env ? std::strtoull(env, nullptr, 10) : 1;
}

class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::disable_all();
    std::remove(kWal);
    std::remove(kCkpt);
  }
};

DtdgEvents chaos_base() {
  DtdgEvents ev;
  ev.num_nodes = kNodes;
  for (uint32_t i = 0; i < kNodes; ++i)
    ev.base_edges.emplace_back(i, (i + 1) % kNodes);
  return ev;
}

/// Deterministic per-seed delta stream: each step flips one ring chord on
/// or off so deltas stay valid against the live edge set by construction.
std::vector<EdgeDelta> chaos_deltas(uint64_t seed, uint32_t steps) {
  Rng rng(seed * 7919 + 17);
  std::vector<EdgeDelta> deltas(steps);
  std::vector<bool> chord_on(kNodes, false);  // chord i: (i, (i+3) % kNodes)
  for (uint32_t t = 0; t < steps; ++t) {
    const auto i = static_cast<uint32_t>(rng.next_below(kNodes));
    const std::pair<uint32_t, uint32_t> chord{i, (i + 3) % kNodes};
    if (chord_on[i])
      deltas[t].deletions.push_back(chord);
    else
      deltas[t].additions.push_back(chord);
    chord_on[i] = !chord_on[i];
  }
  return deltas;
}

Tensor features_at(uint32_t t) {
  Tensor x = Tensor::empty({kNodes, kFeat});
  for (int64_t i = 0; i < kNodes * kFeat; ++i)
    x.data()[i] = 0.1f * static_cast<float>(t + 1) +
                  0.01f * static_cast<float>(i % 13);
  return x;
}

void checkpoint_model(nn::TGCNEncoder& model) {
  io::TrainState st;
  st.params = model.parameters();
  for (const auto& p : st.params) {
    st.moment1.push_back(Tensor::zeros(p.tensor.shape()));
    st.moment2.push_back(Tensor::zeros(p.tensor.shape()));
  }
  io::save_train_state(st, kCkpt);
}

// ---- phase 1: randomized faults under concurrent load ----------------------

TEST_F(ChaosTest, RandomFaultScheduleNeverHangsAndAccountsEveryRequest) {
  const uint64_t seed = chaos_seed();
  SCOPED_TRACE("STGRAPH_CHAOS_SEED=" + std::to_string(seed));

  GpmaGraph graph(chaos_base());
  Rng rng(static_cast<uint64_t>(31));
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  cfg.circuit_failure_threshold = 3;
  cfg.circuit_cooldown_ms = 20;
  cfg.max_inflight_ingests = 2;
  cfg.wal_path = kWal;
  serve::Server server(graph, model, cfg);
  server.start(features_at(0));

  // The randomized failpoint schedule: every injectable fault in the serve
  // path fires probabilistically, reproducibly per seed.
  failpoint::set_seed(seed);
  failpoint::activate_from_spec(
      "serve.delta.apply=p:0.08; serve.batch.dispatch=p:0.06; "
      "serve.batch.delay=p:0.04; serve.step.poison=p:0.04; "
      "serve.wal.append=p:0.04");

  constexpr uint32_t kPredictThreads = 3;
  constexpr uint32_t kOpsPerThread = 40;
  constexpr uint32_t kIngestSteps = 30;
  std::atomic<uint64_t> fresh_ok{0}, stale_ok{0}, shed{0}, predict_err{0};
  std::atomic<uint64_t> ingest_ok{0}, ingest_shed{0}, ingest_err{0};

  auto predictor = [&](uint32_t tid) {
    Rng prng(seed ^ (0xACE0ull + tid));
    uint64_t last_version = 0;
    for (uint32_t k = 0; k < kOpsPerThread; ++k) {
      std::vector<uint32_t> nodes;
      if (k % 3 != 0)
        nodes.push_back(static_cast<uint32_t>(prng.next_below(kNodes)));
      // Mixed budgets: some generous, some tight enough to expire while a
      // delayed batch holds the lock, some with no deadline at all.
      const uint32_t mode = k % 4;
      try {
        serve::PredictResult res;
        if (mode == 0)
          res = server.predict(std::move(nodes));
        else if (mode == 1)
          res = server.predict(std::move(nodes),
                               std::chrono::milliseconds(10));
        else
          res = server.predict(std::move(nodes), std::chrono::seconds(5));
        // No torn reads: whatever we got is finite and version-ordered
        // (stale reads are version-tagged with an OLDER version — allowed
        // to step back only when flagged stale).
        for (int64_t i = 0; i < res.outputs.numel(); ++i)
          ASSERT_TRUE(std::isfinite(res.outputs.data()[i]));
        if (res.stale) {
          stale_ok.fetch_add(1);
        } else {
          EXPECT_GE(res.version, last_version);
          last_version = res.version;
          fresh_ok.fetch_add(1);
        }
      } catch (const serve::ShedError&) {
        shed.fetch_add(1);
      } catch (const StgError&) {
        predict_err.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kPredictThreads; ++i)
    threads.emplace_back(predictor, i);

  // The ingest stream retries each step until it commits (faults on the
  // delta/wal/forward path throw without committing) so the timeline is a
  // deterministic function of the committed count, not the fault schedule.
  const std::vector<EdgeDelta> deltas = chaos_deltas(seed, kIngestSteps);
  for (uint32_t t = 0; t < kIngestSteps; ++t) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      try {
        server.ingest(deltas[t], features_at(t + 1));
        ingest_ok.fetch_add(1);
        break;
      } catch (const serve::ShedError&) {
        ingest_shed.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } catch (const StgError&) {
        ingest_err.fetch_add(1);
      }
      ASSERT_LT(attempt, 63) << "ingest step " << t << " never committed";
    }
  }
  for (auto& th : threads) th.join();

  const serve::ReadView view = server.read_view();
  server.stop();
  failpoint::disable_all();

  // Committed timeline reached exactly the step count, regardless of how
  // many faults were injected along the way.
  EXPECT_EQ(view.time, kIngestSteps);
  EXPECT_EQ(ingest_ok.load(), kIngestSteps);

  // Full accounting: every call the server took resolved into exactly one
  // stats bucket — nothing double-counted, nothing dropped.
  const serve::StatsReport rep = server.stats();
  EXPECT_EQ(rep.requests, fresh_ok.load());
  EXPECT_EQ(rep.stale_served, stale_ok.load());
  EXPECT_EQ(rep.shed_total, shed.load() + ingest_shed.load());
  EXPECT_EQ(rep.failed, predict_err.load());
  const uint64_t predicts = kPredictThreads * kOpsPerThread;
  EXPECT_EQ(predicts + ingest_shed.load(),
            rep.requests + rep.stale_served + rep.failed + rep.shed_total);

  // The WAL survived the fault schedule: CRC-clean, monotonic, and exactly
  // one record per committed step (failed appends rolled back).
  const verify::Report wal_report = verify::check_wal(kWal);
  EXPECT_TRUE(wal_report.ok()) << wal_report.to_string();
  EXPECT_EQ(serve::wal::read(kWal).records.size(), 1u + kIngestSteps);
}

// ---- phase 1b: randomized socket faults ------------------------------------

TEST_F(ChaosTest, NetFaultScheduleNeverWedgesTheFrontend) {
  const uint64_t seed = chaos_seed();
  SCOPED_TRACE("STGRAPH_CHAOS_SEED=" + std::to_string(seed));
  constexpr uint32_t kClients = 3;
  constexpr uint32_t kOpsPerClient = 25;
  constexpr uint32_t kIngestSteps = 10;

  GpmaGraph graph(chaos_base());
  Rng rng(static_cast<uint64_t>(31));
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.queue_capacity = 64;
  serve::Server server(graph, model, cfg);
  server.start(features_at(0));
  net::Frontend frontend(server);
  frontend.start();
  const uint16_t port = frontend.port();

  // Socket-layer faults on top of a (mild) serve-layer schedule: dropped
  // accepts, single-byte reads, single-byte writes — reproducibly per seed.
  failpoint::set_seed(seed);
  failpoint::activate_from_spec(
      "net.accept=p:0.25; net.read.torn=p:0.2; net.write.short=p:0.2; "
      "serve.batch.delay=p:0.05");

  std::atomic<uint64_t> ok{0}, shed{0}, reconnects{0};
  auto worker = [&](uint32_t tid) {
    std::unique_ptr<net::Client> c;
    for (uint32_t k = 0; k < kOpsPerClient; ++k) {
      try {
        if (!c)
          c = std::make_unique<net::Client>("127.0.0.1", port, 10000.0);
        net::PredictWire w =
            c->predict({static_cast<uint32_t>((tid + k) % kNodes)});
        for (int64_t i = 0; i < w.outputs.numel(); ++i)
          ASSERT_TRUE(std::isfinite(w.outputs.data()[i]));
        ok.fetch_add(1);
      } catch (const net::NetError&) {
        shed.fetch_add(1);  // typed shed over the wire
      } catch (const StgError&) {
        // Dropped accept or mid-stream hangup: the op is lost, the client
        // reconnects — it must never hang.
        c.reset();
        reconnects.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t i = 0; i < kClients; ++i) threads.emplace_back(worker, i);

  // The ingest stream also rides the faulty sockets; retry until each step
  // commits so the timeline is deterministic in the committed count.
  const std::vector<EdgeDelta> deltas = chaos_deltas(seed, kIngestSteps);
  uint32_t committed = 0;
  std::unique_ptr<net::Client> ingester;
  for (int attempt = 0; committed < kIngestSteps && attempt < 400; ++attempt) {
    try {
      if (!ingester)
        ingester = std::make_unique<net::Client>("127.0.0.1", port, 10000.0);
      const net::IngestWire w =
          ingester->ingest(deltas[committed], features_at(committed + 1));
      EXPECT_EQ(w.time, committed + 1);
      ++committed;
    } catch (const net::NetError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const StgError&) {
      ingester.reset();
    }
  }
  EXPECT_EQ(committed, kIngestSteps) << "ingest stream wedged";
  for (auto& th : threads) th.join();

  failpoint::disable_all();
  frontend.stop();
  const serve::ReadView view = server.read_view();
  server.stop();
  EXPECT_EQ(view.time, kIngestSteps);
  EXPECT_GT(ok.load(), 0u);

  // Every predict the server accepted resolved into exactly one bucket —
  // connection chaos loses requests at the socket, never inside the server.
  const serve::StatsReport rep = server.stats();
  for (const auto& tr : rep.tenants)
    EXPECT_EQ(tr.issued,
              tr.requests + tr.stale_served + tr.failed + tr.shed_total)
        << "tenant " << tr.id;
}

// ---- phase 2: forced kill + recovery parity --------------------------------

/// Reference outputs after `steps` committed ingests of this seed's
/// deterministic stream (no faults, no WAL).
Tensor reference_output(uint64_t seed, uint32_t steps) {
  GpmaGraph graph(chaos_base());
  Rng rng(static_cast<uint64_t>(31));
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.load(kCkpt);
  server.start(features_at(0));
  const std::vector<EdgeDelta> deltas = chaos_deltas(seed, steps);
  for (uint32_t t = 0; t < steps; ++t)
    server.ingest(deltas[t], features_at(t + 1));
  Tensor out = server.predict().outputs.clone();
  server.stop();
  return out;
}

TEST_F(ChaosTest, Kill9MidStreamRecoversBitIdenticalFromCheckpointPlusWal) {
  const uint64_t seed = chaos_seed();
  SCOPED_TRACE("STGRAPH_CHAOS_SEED=" + std::to_string(seed));
  constexpr uint32_t kSteps = 8;

  {
    GpmaGraph graph(chaos_base());
    Rng rng(static_cast<uint64_t>(31));
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    checkpoint_model(model);
  }

  // Child: serve with the WAL armed, commit kSteps ingests, then die hard
  // — no stop(), no destructors, no final fsync beyond the per-record one.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    GpmaGraph graph(chaos_base());
    Rng rng(static_cast<uint64_t>(31));
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    serve::ServeConfig cfg;
    cfg.wal_path = kWal;
    serve::Server server(graph, model, cfg);
    server.load(kCkpt);
    server.start(features_at(0));
    const std::vector<EdgeDelta> deltas = chaos_deltas(seed, kSteps);
    for (uint32_t t = 0; t < kSteps; ++t)
      server.ingest(deltas[t], features_at(t + 1));
    ::kill(::getpid(), SIGKILL);  // simulated crash: no cleanup of any kind
    std::_Exit(86);               // unreachable
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status << ")";

  // Parent: recover from what the dead process left on disk and compare
  // against an independent fault-free reference of the same prefix.
  const serve::wal::ReadResult rr = serve::wal::read(kWal);
  ASSERT_EQ(rr.records.size(), 1u + kSteps);  // every commit was durable
  const Tensor want = reference_output(seed, kSteps);

  GpmaGraph graph(chaos_base());
  Rng rng(static_cast<uint64_t>(99));  // junk init, overwritten by recover
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.recover(kCkpt, kWal);
  EXPECT_EQ(server.read_view().time, kSteps);
  const Tensor got = server.predict().outputs;
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << "recovered read view is not bit-identical to the reference";
  server.stop();
}

TEST_F(ChaosTest, Kill9UnderLiveConnectionsRecoversBitIdenticalFromWal) {
  const uint64_t seed = chaos_seed();
  SCOPED_TRACE("STGRAPH_CHAOS_SEED=" + std::to_string(seed));
  constexpr uint32_t kSteps = 6;

  {
    GpmaGraph graph(chaos_base());
    Rng rng(static_cast<uint64_t>(31));
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    checkpoint_model(model);
  }

  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);

  // Child: full network stack (server + frontend + WAL), reports its port,
  // then just serves until SIGKILLed with the parent's connection open.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipefd[0]);
    GpmaGraph graph(chaos_base());
    Rng rng(static_cast<uint64_t>(31));
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    serve::ServeConfig cfg;
    cfg.wal_path = kWal;
    serve::Server server(graph, model, cfg);
    server.load(kCkpt);
    server.start(features_at(0));
    net::Frontend frontend(server);
    frontend.start();
    const uint16_t port = frontend.port();
    if (::write(pipefd[1], &port, sizeof(port)) != sizeof(port))
      std::_Exit(87);
    ::close(pipefd[1]);
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  ::close(pipefd[1]);
  uint16_t port = 0;
  ASSERT_EQ(::read(pipefd[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(pipefd[0]);

  // Parent drives the whole timeline over one live TCP connection, takes a
  // predict off the wire, and kills the child while that connection (and
  // any kernel-buffered state) is still open — no goodbye of any kind.
  const std::vector<EdgeDelta> deltas = chaos_deltas(seed, kSteps);
  Tensor live_out;
  {
    net::Client client("127.0.0.1", port, 10000.0);
    for (uint32_t t = 0; t < kSteps; ++t) {
      const net::IngestWire w =
          client.ingest(deltas[t], features_at(t + 1));
      ASSERT_EQ(w.time, t + 1);
    }
    const net::PredictWire live = client.predict();
    EXPECT_EQ(live.time, kSteps);
    live_out = live.outputs;
    ::kill(pid, SIGKILL);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
      << "child did not die by SIGKILL (status " << status << ")";

  // Every ingest the wire acknowledged is durable (fsync-per-record), and
  // the recovered view is bit-identical both to a fault-free reference and
  // to what the dead server actually served over the network.
  ASSERT_EQ(serve::wal::read(kWal).records.size(), 1u + kSteps);
  const Tensor want = reference_output(seed, kSteps);

  GpmaGraph graph(chaos_base());
  Rng rng(static_cast<uint64_t>(99));  // junk init, overwritten by recover
  nn::TGCNEncoder model(kFeat, kHidden, rng);
  serve::Server server(graph, model);
  server.recover(kCkpt, kWal);
  EXPECT_EQ(server.read_view().time, kSteps);
  const Tensor got = server.predict().outputs;
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << "recovered read view is not bit-identical to the reference";
  EXPECT_EQ(std::memcmp(live_out.data(), want.data(),
                        static_cast<std::size_t>(want.numel()) * sizeof(float)),
            0)
      << "network-served output diverged from the reference";
  server.stop();
}

}  // namespace
}  // namespace stgraph
