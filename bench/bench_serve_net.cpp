// Network serving benchmark (`run_all.sh bench` → BENCH_serve_net.json):
// drives a real net::Frontend over loopback TCP with two generator modes
// and a reader-scaling sweep, reporting CLIENT-side latency percentiles,
// throughput, and the typed shed taxonomy as observed on the wire.
//
//   1. reader sweep — closed-loop clients (one outstanding request per
//      connection) against servers with 1, 2 and 4 replicated readers
//      while serve.batch.delay pins every micro-batch at a 50 ms floor.
//      Capacity is num_readers * max_batch per interval, so throughput
//      must scale with reader count (the contract checks >= 2x from
//      1 -> 4) while the full output matrix stays bit-identical to the
//      single-executor run.
//   2. open loop — a paced sender pipelines PREDICT frames at a fixed
//      arrival rate over one connection while a receiver matches
//      responses by request id.
//      Run at 1x and 2x the injected service capacity with a default
//      deadline armed: at 2x the excess must come back as typed sheds, and
//      no ACCEPTED request may complete later than deadline + one batch
//      interval (client-observed, stricter than the server's own check).
//
//   ./build/bench/bench_serve_net --out=BENCH_serve_net.json
//       --connections=8 --ops=10 --requests=400 --deadline-ms=200 --seed=42
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gpma/gpma_graph.hpp"
#include "io/train_state.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "serve/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace stgraph;

namespace {

constexpr int64_t kFeat = 6;
constexpr int64_t kHidden = 12;
constexpr uint32_t kNodes = 16;
constexpr double kBatchIntervalMs = 50.0;  // serve.batch.delay's floor

DtdgEvents ring_base() {
  DtdgEvents ev;
  ev.num_nodes = kNodes;
  for (uint32_t i = 0; i < kNodes; ++i)
    ev.base_edges.emplace_back(i, (i + 1) % kNodes);
  return ev;
}

Tensor features_at(uint32_t t) {
  Tensor x = Tensor::empty({kNodes, kFeat});
  for (int64_t i = 0; i < kNodes * kFeat; ++i)
    x.data()[i] = 0.1f * static_cast<float>(t + 1) +
                  0.01f * static_cast<float>(i % 13);
  return x;
}

void checkpoint_model(nn::TGCNEncoder& model, const char* path) {
  io::TrainState st;
  st.params = model.parameters();
  for (const auto& p : st.params) {
    st.moment1.push_back(Tensor::zeros(p.tensor.shape()));
    st.moment2.push_back(Tensor::zeros(p.tensor.shape()));
  }
  io::save_train_state(st, path);
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(0.0, p / 100.0 * static_cast<double>(sorted.size()) - 1.0));
  return sorted[std::min(rank, sorted.size() - 1)];
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One full serving stack on an ephemeral loopback port.
struct Stack {
  GpmaGraph graph;
  Rng rng;
  nn::TGCNEncoder model;
  serve::Server server;
  net::Frontend frontend;

  Stack(const char* ckpt, serve::ServeConfig cfg)
      : graph(ring_base()),
        rng(31),
        model(kFeat, kHidden, rng),
        server(graph, model, std::move(cfg)),
        frontend(server) {
    server.load(ckpt);
    server.start(features_at(0));
    frontend.start();
  }

  ~Stack() {
    frontend.stop();
    server.stop();
  }
};

// ---- closed loop -----------------------------------------------------------

struct ClosedLoopResult {
  uint64_t ok = 0, shed = 0, errors = 0;
  double wall_s = 0.0;
  std::vector<double> lat_us;  // sorted on return
  double throughput_rps() const {
    return wall_s > 0 ? static_cast<double>(ok) / wall_s : 0.0;
  }
};

/// `connections` synchronous clients, one outstanding request each.
ClosedLoopResult run_closed_loop(uint16_t port, uint32_t connections,
                                 uint32_t ops_per_conn, uint64_t seed) {
  ClosedLoopResult res;
  std::vector<std::vector<double>> lat(connections);
  std::atomic<uint64_t> ok{0}, shed{0}, errors{0};
  const Timer wall;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < connections; ++c)
    threads.emplace_back([&, c] {
      net::Client client("127.0.0.1", port, 60000.0);
      Rng crng(seed ^ (0xBEEFull + c));
      lat[c].reserve(ops_per_conn);
      for (uint32_t k = 0; k < ops_per_conn; ++k) {
        const Timer t;
        try {
          client.predict({static_cast<uint32_t>(crng.next_below(kNodes))});
          lat[c].push_back(t.seconds() * 1e6);
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const net::NetError&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } catch (const StgError&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  for (auto& th : threads) th.join();
  res.wall_s = wall.seconds();
  res.ok = ok.load();
  res.shed = shed.load();
  res.errors = errors.load();
  for (auto& v : lat) res.lat_us.insert(res.lat_us.end(), v.begin(), v.end());
  std::sort(res.lat_us.begin(), res.lat_us.end());
  return res;
}

// ---- open loop -------------------------------------------------------------

struct OpenLoopResult {
  uint64_t issued = 0, accepted = 0, errors = 0;
  uint64_t shed_by_code[4] = {0, 0, 0, 0};  // indexed by wire ErrorCode 0..3
  uint64_t deadline_violations = 0;
  double wall_s = 0.0;
  std::vector<double> lat_us;  // accepted only, sorted on return
  uint64_t shed_total() const {
    return shed_by_code[0] + shed_by_code[1] + shed_by_code[2] +
           shed_by_code[3];
  }
};

/// Paced sender + request-id-matching receiver on ONE pipelined
/// connection: the arrival process never waits for service (open loop).
OpenLoopResult run_open_loop(uint16_t port, double rate_hz, uint32_t total,
                             double deadline_ms, uint64_t seed) {
  OpenLoopResult res;
  res.issued = total;
  net::Client conn("127.0.0.1", port, 60000.0);

  std::mutex mu;
  std::unordered_map<uint64_t, int64_t> sent_ns;  // rid -> send stamp

  std::atomic<uint64_t> received{0};
  std::thread receiver([&] {
    net::FrameDecoder dec;
    char buf[64 * 1024];
    net::Frame f;
    std::string line;
    while (received.load(std::memory_order_acquire) < total) {
      switch (dec.next(&f, &line)) {
        case net::FrameDecoder::Status::kFrame: {
          int64_t t0 = 0;
          {
            std::lock_guard<std::mutex> lk(mu);
            t0 = sent_ns.at(f.request_id);
          }
          const double us = static_cast<double>(now_ns() - t0) / 1e3;
          if (f.verb == net::Verb::kPredictResp) {
            res.lat_us.push_back(us);
            ++res.accepted;
            if (us > deadline_ms * 1000.0 + kBatchIntervalMs * 1000.0)
              ++res.deadline_violations;
          } else if (f.verb == net::Verb::kError) {
            std::string msg;
            const auto code =
                static_cast<uint8_t>(net::parse_error(f.payload, &msg));
            if (code < 4)
              ++res.shed_by_code[code];
            else
              ++res.errors;
          } else {
            ++res.errors;
          }
          received.fetch_add(1, std::memory_order_release);
          continue;
        }
        case net::FrameDecoder::Status::kNeedMore:
          break;
        default:
          std::cerr << "open loop: protocol error: " << dec.error() << "\n";
          received.store(total, std::memory_order_release);
          return;
      }
      const ssize_t n = ::recv(conn.fd(), buf, sizeof(buf), 0);
      if (n <= 0) {
        std::cerr << "open loop: connection lost mid-run\n";
        received.store(total, std::memory_order_release);
        return;
      }
      dec.feed(buf, static_cast<std::size_t>(n));
    }
  });

  Rng prng(seed ^ 0xF00Dull);
  const int64_t start = now_ns();
  const double gap_ns = 1e9 / rate_hz;
  for (uint32_t i = 0; i < total; ++i) {
    // Fixed-rate pacing against the global clock, so service-time spikes
    // never throttle the arrival process.
    const int64_t due = start + static_cast<int64_t>(gap_ns * i);
    while (now_ns() < due) std::this_thread::yield();
    net::Frame req;
    req.verb = net::Verb::kPredict;
    req.request_id = i + 1;
    req.payload = net::build_predict_request(
        {static_cast<uint32_t>(prng.next_below(kNodes))});
    const std::vector<uint8_t> bytes = net::encode_frame(req);
    {
      std::lock_guard<std::mutex> lk(mu);
      sent_ns[req.request_id] = now_ns();
    }
    conn.send_raw(bytes.data(), bytes.size());
  }
  receiver.join();
  res.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  std::sort(res.lat_us.begin(), res.lat_us.end());
  return res;
}

std::string lat_json(std::vector<double>& sorted) {
  std::ostringstream js;
  js << "\"p50_us\": " << percentile(sorted, 50.0)
     << ", \"p99_us\": " << percentile(sorted, 99.0)
     << ", \"p999_us\": " << percentile(sorted, 99.9)
     << ", \"max_us\": " << (sorted.empty() ? 0.0 : sorted.back());
  return js.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_serve_net.json";
  uint32_t connections = 8;
  uint32_t ops_per_conn = 10;
  uint32_t open_loop_requests = 400;
  double deadline_ms = 200.0;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0)
        return arg.substr(std::string(prefix).size());
      return std::nullopt;
    };
    if (auto v = value("--out=")) out = *v;
    else if (auto v = value("--connections=")) connections = std::stoul(*v);
    else if (auto v = value("--ops=")) ops_per_conn = std::stoul(*v);
    else if (auto v = value("--requests=")) open_loop_requests = std::stoul(*v);
    else if (auto v = value("--deadline-ms=")) deadline_ms = std::stod(*v);
    else if (auto v = value("--seed=")) seed = std::stoull(*v);
    else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  const char* ckpt = "/tmp/stgraph_bench_net.stgt";
  {
    Rng rng(31);
    nn::TGCNEncoder model(kFeat, kHidden, rng);
    checkpoint_model(model, ckpt);
  }
  int rc = 0;

  // ---- phase 1: reader-scaling sweep (closed loop) -----------------------
  // max_batch=2 so a single reader can serve at most 2 requests per 50 ms
  // interval; extra readers process additional batches CONCURRENTLY (the
  // injected delay sleeps outside every lock), so capacity is
  // 2 * num_readers / interval and the closed-loop clients saturate it.
  const std::vector<std::size_t> sweep_readers = {1, 2, 4};
  std::vector<ClosedLoopResult> sweep;
  std::vector<Tensor> canonical;  // full output matrix per config
  for (const std::size_t nr : sweep_readers) {
    serve::ServeConfig cfg;
    cfg.num_readers = nr;
    cfg.max_batch = 2;
    cfg.queue_capacity = 256;
    Stack stack(ckpt, cfg);
    {
      // Bit-identity probe before the delay failpoint goes live.
      net::Client probe("127.0.0.1", stack.frontend.port(), 30000.0);
      canonical.push_back(probe.predict().outputs);
    }
    failpoint::enable("serve.batch.delay", failpoint::Spec::always());
    sweep.push_back(run_closed_loop(stack.frontend.port(), connections,
                                    ops_per_conn, seed));
    failpoint::disable_all();
    const serve::StatsReport rep = stack.server.stats();
    if (rep.reader_threads != nr) {
      std::cerr << "FAIL: expected " << nr << " reader threads, got "
                << rep.reader_threads << "\n";
      rc = 1;
    }
  }
  for (std::size_t i = 1; i < canonical.size(); ++i) {
    if (canonical[i].numel() != canonical[0].numel() ||
        std::memcmp(canonical[i].data(), canonical[0].data(),
                    static_cast<std::size_t>(canonical[0].numel()) *
                        sizeof(float)) != 0) {
      std::cerr << "FAIL: " << sweep_readers[i]
                << "-reader output is not bit-identical to 1 reader\n";
      rc = 1;
    }
  }
  const double scaling =
      sweep[0].throughput_rps() > 0
          ? sweep.back().throughput_rps() / sweep[0].throughput_rps()
          : 0.0;
  if (scaling < 2.0) {
    std::cerr << "FAIL: 1 -> " << sweep_readers.back()
              << " reader throughput scaled only " << scaling << "x (< 2x)\n";
    rc = 1;
  }

  // ---- phase 2: open loop at 1x and 2x capacity --------------------------
  // Capacity with 2 readers and max_batch=4 under the 50 ms floor:
  // 2 * 4 / 50ms = 160 req/s.
  const double capacity_rps =
      2.0 * 4.0 * 1000.0 / kBatchIntervalMs;
  std::vector<OpenLoopResult> open_loop;
  const std::vector<double> factors = {1.0, 2.0};
  for (const double factor : factors) {
    serve::ServeConfig cfg;
    cfg.num_readers = 2;
    cfg.max_batch = 4;
    cfg.queue_capacity = 32;  // shallow queue: overload sheds fast, typed
    cfg.default_deadline_ms = deadline_ms;
    Stack stack(ckpt, cfg);
    failpoint::enable("serve.batch.delay", failpoint::Spec::always());
    open_loop.push_back(run_open_loop(stack.frontend.port(),
                                      capacity_rps * factor,
                                      open_loop_requests, deadline_ms,
                                      seed));
    failpoint::disable_all();
    const OpenLoopResult& r = open_loop.back();
    if (r.accepted + r.shed_total() + r.errors != r.issued) {
      std::cerr << "FAIL: open loop " << factor << "x lost requests ("
                << r.accepted << "+" << r.shed_total() << "+" << r.errors
                << " != " << r.issued << ")\n";
      rc = 1;
    }
    if (r.deadline_violations > 0) {
      std::cerr << "FAIL: " << r.deadline_violations << " accepted requests"
                << " at " << factor
                << "x exceeded deadline + one batch interval\n";
      rc = 1;
    }
  }
  if (open_loop[1].shed_total() == 0) {
    std::cerr << "FAIL: 2x overload shed nothing — capacity model is wrong\n";
    rc = 1;
  }
  std::remove(ckpt);

  // ---- emit --------------------------------------------------------------
  std::ostringstream js;
  js << "{\n  \"bench\": \"serve_net\",\n  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    js << "    {\"readers\": " << sweep_readers[i]
       << ", \"throughput_rps\": " << sweep[i].throughput_rps()
       << ", \"ok\": " << sweep[i].ok << ", \"shed\": " << sweep[i].shed
       << ", \"errors\": " << sweep[i].errors << ", "
       << lat_json(sweep[i].lat_us) << "}"
       << (i + 1 < sweep.size() ? "," : "") << "\n";
  }
  js << "  ],\n"
     << "  \"scaling_1_to_" << sweep_readers.back() << "\": " << scaling
     << ",\n"
     << "  \"bit_identical_across_readers\": " << (rc == 0 ? "true" : "false")
     << ",\n  \"open_loop\": {\n";
  for (std::size_t i = 0; i < open_loop.size(); ++i) {
    OpenLoopResult& r = open_loop[i];
    js << "    \"" << factors[i] << "x\": {\"rate_rps\": "
       << capacity_rps * factors[i] << ", \"issued\": " << r.issued
       << ", \"accepted\": " << r.accepted
       << ", \"shed_queue_full\": " << r.shed_by_code[0]
       << ", \"shed_deadline_expired\": " << r.shed_by_code[1]
       << ", \"shed_draining\": " << r.shed_by_code[2]
       << ", \"shed_circuit_open\": " << r.shed_by_code[3]
       << ", \"errors\": " << r.errors
       << ", \"deadline_violations\": " << r.deadline_violations
       << ", \"wall_s\": " << r.wall_s << ", " << lat_json(r.lat_us) << "}"
       << (i + 1 < open_loop.size() ? "," : "") << "\n";
  }
  js << "  },\n"
     << "  \"capacity_rps\": " << capacity_rps << ",\n"
     << "  \"deadline_ms\": " << deadline_ms << ",\n"
     << "  \"batch_interval_ms\": " << kBatchIntervalMs << "\n}\n";
  std::ofstream f(out);
  f << js.str();
  f.close();

  for (std::size_t i = 0; i < sweep.size(); ++i)
    std::cout << "sweep " << sweep_readers[i]
              << " readers: " << sweep[i].throughput_rps() << " req/s (p99 "
              << percentile(sweep[i].lat_us, 99.0) << " us)\n";
  std::cout << "scaling 1 -> " << sweep_readers.back() << " readers: "
            << scaling << "x\n";
  for (std::size_t i = 0; i < open_loop.size(); ++i)
    std::cout << "open loop " << factors[i] << "x: " << open_loop[i].accepted
              << "/" << open_loop[i].issued << " accepted, "
              << open_loop[i].shed_total() << " shed, "
              << open_loop[i].deadline_violations << " deadline violations, "
              << "p99 " << percentile(open_loop[i].lat_us, 99.0) << " us\n";
  std::cout << "wrote " << out << (rc == 0 ? "" : "  [CONTRACT FAILURES]")
            << "\n";
  return rc;
}
