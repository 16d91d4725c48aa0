// Loopback end-to-end tests for the network serving front-end: binary
// predict/ingest/stats/health round trips that stay bit-identical to the
// trainer's reference pass, the JSON fallback, concurrent clients against
// replicated readers while ingest and snapshot installs run, torn-read /
// short-write fault injection, protocol-error hangups, drain-on-stop
// semantics for parked requests, and fd-count parity across a full
// start/traffic/stop cycle.
#include <gtest/gtest.h>

#include <unistd.h>

#include <dirent.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <memory>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

constexpr int64_t kFeat = 6;
constexpr int64_t kHidden = 8;
// Per-process paths: ctest runs every case of this binary as its own
// process, concurrently under -j.
const std::string kCkptFile =
    "/tmp/stgraph_test_serve_net_" + std::to_string(::getpid()) + ".stgt";
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

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

/// Everything one loopback test needs: graph, model, server, frontend.
/// Declaration order matters — the signal and graph feed the server.
struct NetRig {
  DtdgEvents events;
  datasets::TemporalSignal sig;
  GpmaGraph graph;
  Rng rng;
  nn::TGCNEncoder model;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::Frontend> frontend;

  explicit NetRig(serve::ServeConfig cfg = {}, net::FrontendConfig fcfg = {})
      : events(tiny_events()),
        sig(datasets::make_dynamic_signal(events, signal_opts())),
        graph(base_only(events)),
        rng(999),
        model(kFeat, kHidden, rng) {
    server = std::make_unique<serve::Server>(graph, model, cfg);
    frontend = std::make_unique<net::Frontend>(*server, std::move(fcfg));
  }

  ~NetRig() { stop(); }

  void start() {
    server->start(sig.features[0]);
    frontend->start();
  }

  void stop() {
    if (frontend->running()) frontend->stop();
    if (server->running()) server->stop();
  }

  net::Client connect(double timeout_ms = 5000.0) {
    return net::Client("127.0.0.1", frontend->port(), timeout_ms);
  }
};

class ServeNetTest : public ::testing::Test {
 protected:
  void TearDown() override {
    failpoint::disable_all();
    std::remove(kCkpt);
  }
};

TEST_F(ServeNetTest, PredictAndIngestOverLoopbackMatchTheTrainerBitExact) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  const std::vector<Tensor> ref = train_and_checkpoint(events, sig);

  serve::ServeConfig cfg;
  cfg.num_readers = 2;
  NetRig rig(cfg);
  rig.server->load(kCkpt);
  rig.start();

  net::Client client = rig.connect();
  const auto T = static_cast<uint32_t>(ref.size());
  for (uint32_t t = 0; t < T; ++t) {
    net::PredictWire full = client.predict();
    EXPECT_EQ(full.time, t);
    EXPECT_FALSE(full.stale);
    expect_bitwise_equal(full.outputs, ref[t],
                         "t=" + std::to_string(t) + " over loopback");

    // Row-subset predict gathers rows of the same published step.
    net::PredictWire sub = client.predict({7, 2});
    ASSERT_EQ(sub.outputs.rows(), 2);
    for (int64_t c = 0; c < full.outputs.cols(); ++c) {
      EXPECT_EQ(sub.outputs.data()[c],
                full.outputs.data()[7 * full.outputs.cols() + c]);
      EXPECT_EQ(sub.outputs.data()[full.outputs.cols() + c],
                full.outputs.data()[2 * full.outputs.cols() + c]);
    }

    if (t + 1 < T) {
      net::IngestWire ing =
          client.ingest(events.deltas[t], sig.features[t + 1]);
      EXPECT_EQ(ing.time, t + 1);
      EXPECT_GT(ing.version, 0u);
    }
  }

  const std::string health = client.health_json();
  EXPECT_NE(health.find("\"health\""), std::string::npos);
  EXPECT_NE(health.find("\"version\""), std::string::npos);
  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("\"tenants\""), std::string::npos);
  EXPECT_NE(stats.find("\"reader_utilization\""), std::string::npos);

  rig.stop();
  const net::FrontendStats fs = rig.frontend->stats();
  EXPECT_EQ(fs.accepted, 1u);
  EXPECT_EQ(fs.closed, 1u);
  EXPECT_EQ(fs.protocol_errors, 0u);
  EXPECT_GE(fs.frames_in, 2u * T);
  EXPECT_EQ(fs.frames_out, fs.frames_in);  // every request got an answer
}

TEST_F(ServeNetTest, JsonFallbackAnswersOneLinePerRequest) {
  NetRig rig;
  rig.start();

  net::Client client = rig.connect();
  const std::string health = client.json_round_trip("{\"op\": \"health\"}");
  EXPECT_EQ(health.front(), '{');
  EXPECT_NE(health.find("\"health\""), std::string::npos);

  const std::string pred =
      client.json_round_trip("{\"op\": \"predict\", \"nodes\": [1, 3]}");
  EXPECT_NE(pred.find("\"outputs\""), std::string::npos);
  EXPECT_NE(pred.find("\"version\""), std::string::npos);

  // A bad request answers with an error line and KEEPS the connection —
  // newline framing survives where binary framing could not.
  const std::string err = client.json_round_trip("{\"op\": \"reboot\"}");
  EXPECT_NE(err.find("\"error\""), std::string::npos);
  EXPECT_NE(err.find("bad_request"), std::string::npos);

  const std::string stats = client.json_round_trip("{\"op\": \"stats\"}");
  EXPECT_EQ(stats.front(), '{');
  EXPECT_EQ(stats.find('\n'), std::string::npos);  // folded to one line

  EXPECT_EQ(rig.frontend->stats().json_lines_in, 4u);
}

TEST_F(ServeNetTest, GarbageBytesGetATypedErrorFrameThenTheBootPrintsClose) {
  NetRig rig;
  rig.start();

  net::Client client = rig.connect(/*timeout_ms=*/2000.0);
  const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
  client.send_raw(garbage, sizeof(garbage) - 1);

  const std::vector<uint8_t> raw = client.read_until_close();
  net::FrameDecoder dec;
  dec.feed(raw.data(), raw.size());
  net::Frame f;
  std::string line;
  ASSERT_EQ(dec.next(&f, &line), net::FrameDecoder::Status::kFrame);
  EXPECT_EQ(f.verb, net::Verb::kError);
  std::string message;
  EXPECT_EQ(net::parse_error(f.payload, &message),
            net::ErrorCode::kBadRequest);
  EXPECT_NE(message.find("magic"), std::string::npos);

  // The frontend must have dropped the connection after the goodbye.
  for (int i = 0; i < 500 && rig.frontend->connections() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(rig.frontend->connections(), 0u);
  EXPECT_EQ(rig.frontend->stats().protocol_errors, 1u);
}

TEST_F(ServeNetTest, ConcurrentClientsIngestAndInstallStayBitExact) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  const std::vector<Tensor> ref = train_and_checkpoint(events, sig);

  serve::ServeConfig cfg;
  cfg.num_readers = 4;
  cfg.tenants = {{1, 3, 0}, {2, 1, 0}};
  NetRig rig(cfg);
  rig.server->load(kCkpt);
  rig.start();

  std::atomic<bool> go{true};
  std::atomic<uint64_t> ok{0}, shed{0};
  std::atomic<int> mismatches{0};

  // Predict clients: every response must be the reference output for the
  // timestamp it is tagged with, no matter which reader served it or how
  // far ingest has advanced meanwhile.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      net::Client client = rig.connect();
      const uint16_t tenant = c % 2 == 0 ? 1 : 2;
      while (go.load(std::memory_order_acquire)) {
        try {
          net::PredictWire w = client.predict({}, tenant);
          if (w.time >= ref.size() ||
              std::memcmp(w.outputs.data(), ref[w.time].data(),
                          static_cast<std::size_t>(w.outputs.numel()) *
                              sizeof(float)) != 0)
            mismatches.fetch_add(1);
          ok.fetch_add(1);
        } catch (const net::NetError&) {
          shed.fetch_add(1);  // typed shed crossing the wire is fine
        }
      }
    });
  }

  // One ingest client advances the timeline over the same socket layer,
  // and the main thread re-installs the current snapshot between steps —
  // the atomic swap must never produce a non-reference output.
  {
    net::Client ingest_client = rig.connect();
    for (uint32_t t = 0; t + 1 < ref.size(); ++t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      rig.server->install(rig.server->snapshot());
      net::IngestWire ing =
          ingest_client.ingest(events.deltas[t], sig.features[t + 1]);
      EXPECT_EQ(ing.time, t + 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }

  go.store(false, std::memory_order_release);
  for (auto& th : clients) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(ok.load(), 0u);

  rig.stop();

  // Per-tenant accounting identity across the whole run: everything issued
  // is accounted for exactly once.
  const serve::StatsReport report = rig.server->stats();
  for (const auto& tr : report.tenants) {
    EXPECT_EQ(tr.issued, tr.requests + tr.stale_served + tr.failed +
                             tr.shed_total)
        << "tenant " << tr.id;
  }
}

TEST_F(ServeNetTest, TornReadsAndShortWritesStillDeliverEveryFrame) {
  const DtdgEvents events = tiny_events();
  const datasets::TemporalSignal sig =
      datasets::make_dynamic_signal(events, signal_opts());
  const std::vector<Tensor> ref = train_and_checkpoint(events, sig);

  NetRig rig;
  rig.server->load(kCkpt);
  rig.start();

  // Every recv() on the frontend now returns a single byte and every
  // send() writes a single byte: the decoder reassembles, the write queue
  // drains via EPOLLOUT, and the payload still arrives bit-exact.
  failpoint::enable("net.read.torn", failpoint::Spec::always());
  failpoint::enable("net.write.short", failpoint::Spec::always());

  net::Client client = rig.connect(/*timeout_ms=*/30000.0);
  for (int i = 0; i < 3; ++i) {
    net::PredictWire w = client.predict();
    EXPECT_EQ(w.time, 0u);
    expect_bitwise_equal(w.outputs, ref[0], "torn round trip");
  }
  const std::string health = client.health_json();
  EXPECT_NE(health.find("\"health\""), std::string::npos);

  failpoint::disable_all();
  rig.stop();
  EXPECT_EQ(rig.frontend->stats().protocol_errors, 0u);
}

TEST_F(ServeNetTest, AcceptFailpointDropsTheClientButNotTheFrontend) {
  NetRig rig;
  rig.start();

  failpoint::enable("net.accept", failpoint::Spec::once());
  {
    // This connect succeeds at TCP level but the frontend drops the
    // accepted fd before registering it; the client sees EOF.
    net::Client doomed = rig.connect(/*timeout_ms=*/2000.0);
    EXPECT_TRUE(doomed.read_until_close().empty());
  }
  failpoint::disable_all();

  // The frontend survives and serves the next client normally.
  net::Client client = rig.connect();
  EXPECT_NE(client.health_json().find("\"health\""), std::string::npos);
  EXPECT_EQ(rig.frontend->connections(), 1u);
}

TEST_F(ServeNetTest, ServerStopRejectsParkedRequestsWithDrainingErrors) {
  serve::ServeConfig cfg;
  cfg.num_readers = 1;
  cfg.max_batch = 1;  // one request per (delayed) batch, the rest stay parked
  NetRig rig(cfg);
  rig.start();

  // Slow every batch so requests pile up parked behind the reader.
  failpoint::enable("serve.batch.delay", failpoint::Spec::always());

  net::Client client = rig.connect(/*timeout_ms=*/5000.0);
  constexpr int kInflight = 6;
  for (uint64_t rid = 1; rid <= kInflight; ++rid) {
    net::Frame req;
    req.verb = net::Verb::kPredict;
    req.request_id = rid;
    req.payload = net::build_predict_request({});
    const std::vector<uint8_t> bytes = net::encode_frame(req);
    client.send_raw(bytes.data(), bytes.size());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Stop the SERVER while the frontend and the client connection live on:
  // every parked request must resolve — fulfilled or shed as draining —
  // and the answers must still reach the socket. Then stop the frontend so
  // the client reads a clean EOF after the final flush.
  rig.server->stop();
  rig.frontend->stop();

  int fulfilled = 0, draining = 0;
  net::FrameDecoder dec;
  std::vector<uint8_t> raw = client.read_until_close();
  dec.feed(raw.data(), raw.size());
  net::Frame f;
  std::string line;
  while (dec.next(&f, &line) == net::FrameDecoder::Status::kFrame) {
    if (f.verb == net::Verb::kPredictResp) {
      ++fulfilled;
    } else {
      ASSERT_EQ(f.verb, net::Verb::kError);
      std::string message;
      EXPECT_EQ(net::parse_error(f.payload, &message),
                net::ErrorCode::kDraining);
      ++draining;
    }
  }
  EXPECT_EQ(fulfilled + draining, kInflight);
  EXPECT_GT(draining, 0) << "stop() should have caught parked requests";

  failpoint::disable_all();
  rig.stop();
}

TEST_F(ServeNetTest, IngestDuringStopGetsTheTypedDrainingError) {
  NetRig rig;
  rig.start();
  net::Client client = rig.connect(/*timeout_ms=*/5000.0);
  client.ingest(rig.events.deltas[0], rig.sig.features[1]);

  // Hold stop() in the window where the ingest worker is already joined
  // but the loop thread still serves frames: an INGEST landing there must
  // get the typed draining reject, not sit forever in a queue nobody
  // drains.
  failpoint::enable("net.stop.ingest_window", failpoint::Spec::always());
  std::thread stopper([&] { rig.frontend->stop(); });
  bool drained = false;
  for (int i = 0; i < 500 && !drained; ++i) {
    try {
      // Empty deltas keep the timeline appendable no matter how many land
      // before stop() flips the flag.
      client.ingest(EdgeDelta{}, rig.sig.features[1]);
    } catch (const net::NetError& e) {
      EXPECT_EQ(e.code(), net::ErrorCode::kDraining);
      drained = true;
    } catch (const StgError&) {
      break;  // frontend finished stopping before we hit the window
    }
  }
  stopper.join();
  EXPECT_TRUE(drained) << "INGEST in the stop window was not rejected";
  failpoint::disable_all();
  rig.stop();
}

TEST_F(ServeNetTest, FullCycleLeaksNoFileDescriptors) {
  const std::size_t before = open_fd_count();
  {
    NetRig rig;
    rig.start();
    {
      std::vector<net::Client> clients;
      for (int i = 0; i < 4; ++i) clients.push_back(rig.connect());
      for (auto& c : clients) {
        c.predict();
        c.health_json();
      }
      EXPECT_EQ(rig.frontend->connections(), 4u);
    }  // clients close their ends; server reaps on EOF or at stop()
    rig.stop();
    EXPECT_EQ(rig.frontend->stats().accepted, 4u);
    EXPECT_EQ(rig.frontend->stats().closed, 4u);
  }
  EXPECT_EQ(open_fd_count(), before)
      << "fd count changed across a start/traffic/stop cycle";
}

}  // namespace
}  // namespace stgraph
