// serve-mixed: a GPMA-backed serve::Server behind net::Frontend on loopback,
// driven open loop. PREDICTs of random node rows arrive on a fixed
// schedule over one pipelined connection while INGESTs of the next edge
// delta arrive on a second, so writes happen beside reads: a read that
// lands after an ingest waits for that version's forward pass.
//
// Latency is timed from each request's due time, so a stall also counts
// against the requests queued behind it. The run is cut into windows by due
// time; predict percentiles are the median of the per-window ones, and
// op_ms is the lowest per-window median.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <xmmintrin.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "io/train_state.hpp"
#include "micro.hpp"
#include "net/client.hpp"
#include "net/frontend.hpp"
#include "nn/models.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace stgbench {
namespace {

using namespace stgraph;

// Thirty windows (about 0.7 s and 2,700 requests each in a 20-s run), so a
// slow phase of the host shorter than half the run moves at most a few
// per-window percentiles and not their median, and the lowest per-window
// median comes from a stretch the host left alone.
constexpr int kWindows = 30;
constexpr const char* kHost = "127.0.0.1";
// Latency numbers of a run whose generator ran later than this at p99 are
// marked invalid (not failed: the lateness is the host's, not the
// program's). Latency is timed from the due time, so a late generator makes
// latency read worse, never better.
constexpr double kMaxLateP99Us = 1000;

struct ServeShape {
  double scale = 0.02;
  double churn_pct = 1.0;
  int64_t features = 16;
  int64_t hidden = 32;
  /// Leaves headroom for a host running at half speed: at 8,000/s the p50
  /// was lower and steadier in calm phases but grew to milliseconds, with a
  /// backlog, once the host slowed a forward pass from 30 to 65 ms.
  double predict_hz = 4000;
  /// Node rows per PREDICT. Enough that gathering, encoding and sending
  /// them is a real share of the p50 next to the thread wake-ups, whose
  /// cost moves from run to run: over six interleaved runs the quartile
  /// spread of the p50 was 7% at 8 rows (54 us) and 6% at 64 (87 us).
  uint32_t rows = 64;
  /// Each ingest's forward pass holds up the reads behind it, so the ingest
  /// rate sets how close the p50 sits to that cliff when the host slows.
  /// In six interleaved 20-s runs each while the host ran at about half
  /// speed, the median p50 was 2.5 ms at 5 Hz, 0.95 ms at 2 Hz and 0.52 ms
  /// at 1 Hz (0.12 ms at any of them when calm). At 1 Hz about 2.5% of the
  /// reads still wait for a forward pass, so the p99 keeps showing it.
  double ingest_hz = 1;
  std::size_t readers = 2;
  std::size_t max_batch = 16;
};

ServeShape shape_for(const Options& opts) {
  ServeShape s;
  if (opts.smoke) {
    s.scale = 0.005;
    s.features = 8;
    s.hidden = 8;
    s.predict_hz = 1000;
    s.ingest_hz = 10;  // a few ingests within a sub-second run
  }
  return s;
}

// The CPU reserve_generator_cpu() set aside for the load generator.
int g_generator_cpu = 0;
bool g_generator_pinned = false;

/// Generator threads run on their reserved CPU, apart from the server's.
void enter_generator_thread() {
  if (g_generator_pinned) pin_to_cpu(g_generator_cpu);
  // Wake at the due time, not up to 50 us later (the default slack).
  ::prctl(PR_SET_TIMERSLACK, 1UL);
}

/// Spins on `cpu` at the lowest scheduling class until `stop`: any other
/// thread that becomes runnable there preempts it at once, but the CPU
/// itself never halts.
void keep_busy(int cpu, const std::atomic<bool>& stop) {
  pin_to_cpu(cpu);
  const sched_param idle{};
  ::sched_setscheduler(0, SCHED_IDLE, &idle);
  while (!stop.load(std::memory_order_relaxed)) _mm_pause();
}

/// Confines the calling thread, and so every thread it starts meanwhile,
/// to one CPU for the object's lifetime.
class OnOneCpu {
 public:
  explicit OnOneCpu(int cpu) {
    CPU_ZERO(&saved_);
    restore_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
    pin_to_cpu(cpu);
  }
  ~OnOneCpu() {
    if (restore_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  OnOneCpu(const OnOneCpu&) = delete;
  OnOneCpu& operator=(const OnOneCpu&) = delete;

 private:
  cpu_set_t saved_;
  bool restore_ = false;
};

/// Node features of timestep k, a pure function of (seed, k).
Tensor node_features(uint32_t nodes, int64_t f, uint64_t seed, uint32_t k) {
  Rng rng(seed ^ 0x6665617475726573ULL ^ (0x9E3779B97F4A7C15ULL * (k + 1)));
  return Tensor::randn({static_cast<int64_t>(nodes), f}, rng, 0.5f);
}

/// The served model: TGCNEncoder initialized from the seed, behind the
/// decorator when traced (its parameter names then carry the "inner."
/// prefix, so a checkpoint is written per kind).
struct Model {
  std::unique_ptr<nn::TGCNEncoder> plain;
  std::unique_ptr<trace::TracedModel> traced;

  Model(const ServeShape& s, uint64_t seed, bool with_trace) {
    Rng rng(seed ^ 0x6d6f64656cULL);
    plain = std::make_unique<nn::TGCNEncoder>(s.features, s.hidden, rng);
    if (with_trace) traced = std::make_unique<trace::TracedModel>(*plain);
  }
  nn::TemporalModel& served() {
    return traced ? static_cast<nn::TemporalModel&>(*traced) : *plain;
  }
};

/// One complete serving set-up. Members are declared in dependency order;
/// the destructor stops the front-end before the server it feeds.
struct Stack {
  DtdgEvents events;  ///< the full timeline; the server starts at its base
  std::unique_ptr<GpmaGraph> graph;
  std::unique_ptr<Model> model;
  std::unique_ptr<trace::TracedGraph> traced_graph;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::Frontend> frontend;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() { stop(); }

  void stop() {
    if (frontend) frontend->stop();
    if (server) server->stop();
  }
};

/// Writes the checkpoint the server loads: the model's parameters with
/// fresh optimizer moments. Input preparation, so it is not timed.
std::string write_checkpoint(const ServeShape& s, const Options& opts,
                             bool traced) {
  Model m(s, opts.seed, traced);
  io::TrainState state;
  state.params = m.served().parameters();
  for (const nn::Parameter& p : state.params) {
    state.moment1.push_back(Tensor::zeros(p.tensor.shape()));
    state.moment2.push_back(Tensor::zeros(p.tensor.shape()));
  }
  const std::string path = opts.out_dir + "/" + opts.workload + ".stgt";
  io::save_train_state(state, path);
  return path;
}

/// Dataset synthesis, graph at the base snapshot, model, checkpoint load,
/// server and front-end start, and the first read.
std::unique_ptr<Stack> set_up(const ServeShape& s, const Options& opts,
                              bool traced, const std::string& ckpt) {
  auto st = std::make_unique<Stack>();
  datasets::DynamicLoadOptions o;
  o.feature_size = s.features;
  o.seed = opts.seed;
  o.scale = s.scale;
  st->events =
      datasets::make_dtdg(datasets::load_sx_stackoverflow(o), s.churn_pct);
  DtdgEvents base;
  base.num_nodes = st->events.num_nodes;
  base.base_edges = st->events.base_edges;
  st->graph = std::make_unique<GpmaGraph>(base);
  st->model = std::make_unique<Model>(s, opts.seed, traced);
  STGraphBase* graph = st->graph.get();
  if (traced) {
    st->traced_graph = std::make_unique<trace::TracedGraph>(*graph);
    graph = st->traced_graph.get();
  }
  serve::ServeConfig cfg;
  cfg.num_readers = s.readers;
  cfg.max_batch = s.max_batch;
  st->server =
      std::make_unique<serve::Server>(*graph, st->model->served(), cfg);
  st->server->load(ckpt);
  {
    // The request path's threads (readers, watchdog, the front-end's loop
    // and ingest threads) start on one server CPU, so a PREDICT's hand-offs
    // between them are wake-ups on that CPU, not between vCPUs, whose cost
    // the host sets. In eight interleaved pairs of 20-s runs this lowered
    // op_ms in every pair (0.075 against 0.080 ms) and its quartile spread
    // from 10.4% to 7.2%. The kernel pool, started first, keeps every
    // server CPU for the forward passes.
    ThreadPool::instance();
    const OnOneCpu request_path(allowed_cpus().front());
    st->server->start(
        node_features(st->events.num_nodes, s.features, opts.seed, 0));
    st->frontend = std::make_unique<net::Frontend>(*st->server);
    st->frontend->start();
  }
  // First read: runs the base version's forward pass, so the measured
  // phase starts warm.
  net::Client(kHost, st->frontend->port(), 30000.0).predict({0});
  return st;
}

struct Load {
  uint64_t issued = 0, ok = 0, shed = 0, errors = 0, lost = 0;
  uint64_t bad_shape = 0, non_finite = 0;
  std::vector<double> latency_us[kWindows];
  std::vector<double> late_us;
  uint64_t ingests = 0, ingests_acked = 0;
  std::vector<double> ingest_ms;

  std::vector<double> per_window(double p) const {
    std::vector<double> v;
    for (const auto& w : latency_us) v.push_back(percentile(w, p));
    return v;
  }
  double window_median(double p) const { return median(per_window(p)); }
  double window_min(double p) const {
    const std::vector<double> v = per_window(p);
    return *std::min_element(v.begin(), v.end());
  }
};

void sleep_until_ns(int64_t due) {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  timespec ts{static_cast<time_t>(due / 1000000000),
              static_cast<long>(due % 1000000000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The sender's wait for a request's due time. On its own CPU it spins,
/// yielding to the receiver and ingester there: in a virtual machine a
/// sleeping vCPU can take milliseconds to be woken (on a shared 4-vCPU VM
/// a sleeping sender was 3.7-5.7 ms late at p99, a spinning one 0.02-0.24
/// ms), and that lateness would count against every request it delays.
void wait_until_ns(int64_t due) {
  if (!g_generator_pinned) return sleep_until_ns(due);
  while (now_ns() < due) ::sched_yield();
}

/// Receives PREDICT responses on `fd` until `total` have arrived or the
/// clock passes `give_up_at`; validates each and times it from its due
/// time (request id i is due at start + (i-1) * gap). Returns how many
/// responses carried a valid request id.
uint64_t receive(int fd, uint64_t total, int64_t start, double gap_ns,
                 uint32_t rows, int64_t cols, int64_t give_up_at,
                 Load& load) {
  net::FrameDecoder decoder;
  std::vector<char> buf(64 * 1024);
  uint64_t received = 0;
  // Beside the spinning sender, poll and yield after every frame, so that
  // a burst of responses never holds the sender past a due time.
  const int recv_flags = g_generator_pinned ? MSG_DONTWAIT : 0;
  while (received < total && now_ns() < give_up_at) {
    if (g_generator_pinned) ::sched_yield();
    net::Frame f;
    std::string line;
    const auto status = decoder.next(&f, &line);
    if (status == net::FrameDecoder::Status::kFrame) {
      const int64_t t = now_ns();
      if (f.request_id < 1 || f.request_id > total) {
        ++load.bad_shape;
        continue;
      }
      ++received;
      const uint64_t i = f.request_id - 1;
      const int64_t due = start + static_cast<int64_t>(gap_ns * static_cast<double>(i));
      if (f.verb == net::Verb::kPredictResp) {
        net::PredictWire r;
        try {
          r = net::parse_predict_response(f.payload);
        } catch (const std::exception&) {
          ++load.bad_shape;
          continue;
        }
        if (r.outputs.rows() != rows || r.outputs.cols() != cols) {
          ++load.bad_shape;
          continue;
        }
        const float* p = r.outputs.data();
        if (!std::all_of(p, p + r.outputs.numel(),
                         [](float v) { return std::isfinite(v); }))
          ++load.non_finite;
        ++load.ok;
        load.latency_us[i * kWindows / total].push_back(
            static_cast<double>(t - due) * 1e-3);
        if (i % 100 == 0) trace::record("client.predict", due, t, f.request_id);
      } else if (f.verb == net::Verb::kError) {
        std::string msg;
        try {
          const auto code =
              static_cast<uint8_t>(net::parse_error(f.payload, &msg));
          ++(code < 4 ? load.shed : load.errors);
        } catch (const std::exception&) {
          ++load.bad_shape;
        }
      } else {
        ++load.bad_shape;
      }
      continue;
    }
    if (status != net::FrameDecoder::Status::kNeedMore) break;  // stream lost
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), recv_flags);
    if (n > 0) {
      decoder.feed(buf.data(), static_cast<std::size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                          errno != EINTR)) {
      break;
    }
  }
  return received;
}

Load drive(Stack& st, const ServeShape& s, const Options& opts,
           double seconds) {
  Load load;
  const uint32_t nodes = st.events.num_nodes;
  const uint64_t total =
      std::max<uint64_t>(1, static_cast<uint64_t>(s.predict_hz * seconds));
  const double gap_ns = 1e9 / s.predict_hz;
  load.ingests = std::min<uint64_t>(
      static_cast<uint64_t>(s.ingest_hz * seconds), st.events.deltas.size());

  // The request stream, encoded up front so the sender only writes.
  std::vector<uint8_t> wire;
  std::vector<std::size_t> offset{0};
  {
    Rng rng(opts.seed ^ 0x7072656469637473ULL);
    std::vector<uint32_t> ids(s.rows);
    for (uint64_t i = 0; i < total; ++i) {
      for (uint32_t& id : ids) id = static_cast<uint32_t>(rng.next_below(nodes));
      net::Frame f;
      f.verb = net::Verb::kPredict;
      f.request_id = i + 1;
      f.payload = net::build_predict_request(ids);
      const std::vector<uint8_t> bytes = net::encode_frame(f);
      wire.insert(wire.end(), bytes.begin(), bytes.end());
      offset.push_back(wire.size());
    }
  }

  const uint16_t port = st.frontend->port();
  net::Client predicts(kHost, port, /*timeout_ms=*/200.0);
  net::Client ingests(kHost, port, /*timeout_ms=*/30000.0);
  // Time for the generator threads to start and pin themselves: a first
  // request due before its sender runs counts as generator lateness.
  const int64_t start = now_ns() + 100'000'000;
  // Replies still in flight ten seconds after the last request was due
  // count as lost.
  const int64_t give_up_at =
      start + static_cast<int64_t>(gap_ns * static_cast<double>(total)) +
      10'000'000'000;
  uint64_t received = 0;
  {
    JoinAll generator;
    generator.threads.emplace_back([&] {
      enter_generator_thread();
      received = receive(predicts.fd(), total, start, gap_ns, s.rows,
                         s.hidden, give_up_at, load);
    });
    generator.threads.emplace_back([&] {
      enter_generator_thread();
      const double ingest_gap_ns = 1e9 / s.ingest_hz;
      for (uint64_t k = 0; k < load.ingests; ++k) {
        const int64_t due =
            start + static_cast<int64_t>(ingest_gap_ns * static_cast<double>(k));
        try {
          const Tensor x = node_features(nodes, s.features, opts.seed,
                                         static_cast<uint32_t>(k + 1));
          sleep_until_ns(due);
          const int64_t t0 = now_ns();
          ingests.ingest(st.events.deltas[k], x);
          const int64_t t1 = now_ns();
          ++load.ingests_acked;
          load.ingest_ms.push_back(static_cast<double>(t1 - due) * 1e-6);
          trace::record("client.ingest", t0, t1, k + 1);
        } catch (const std::exception&) {
          // Counted as failed: ingests - ingests_acked.
        }
      }
    });
    // Sender: on a fixed schedule that never waits for replies.
    generator.threads.emplace_back([&] {
      enter_generator_thread();
      load.late_us.reserve(total);
      try {
        for (uint64_t i = 0; i < total; ++i) {
          const int64_t due =
              start + static_cast<int64_t>(gap_ns * static_cast<double>(i));
          wait_until_ns(due);
          load.late_us.push_back(static_cast<double>(now_ns() - due) * 1e-3);
          predicts.send_raw(wire.data() + offset[i],
                            offset[i + 1] - offset[i]);
          ++load.issued;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve-mixed: send failed: %s\n", e.what());
      }
    });
  }
  load.lost = load.issued - std::min(load.issued, received);
  return load;
}

void check_serving(const Options& opts, Result& result, Load load,
                   uint32_t final_time) {
  if (breaking(opts, "accounting")) ++load.issued;
  if (breaking(opts, "response_rows")) ++load.bad_shape;
  if (breaking(opts, "response_finite")) ++load.non_finite;
  if (breaking(opts, "final_time")) ++final_time;
  std::ostringstream d;
  d << load.ok << " accepted + " << load.shed << " shed + " << load.errors
    << " errors + " << load.bad_shape << " malformed of " << load.issued
    << " issued (" << load.lost << " lost)";
  result.check("accounting",
               load.ok + load.shed + load.errors + load.bad_shape ==
                       load.issued &&
                   load.lost == 0,
               d.str());
  result.check("response_rows", load.bad_shape == 0,
               std::to_string(load.bad_shape) +
                   " responses with the wrong shape or id");
  result.check("response_finite", load.non_finite == 0,
               std::to_string(load.non_finite) +
                   " responses with non-finite values");
  result.check("final_time", final_time == load.ingests_acked,
               "read_view().time " + std::to_string(final_time) + ", " +
                   std::to_string(load.ingests_acked) + " ingests acked");
}

void account(Result& result, const Load& load) {
  result.attempted = load.issued + load.ingests;
  result.failed = load.shed + load.errors + load.lost + load.bad_shape +
                  load.non_finite + (load.ingests - load.ingests_acked);
  const double late_p99_us = percentile(load.late_us, 99);
  result.detail("predict_p50_us", load.window_median(50));
  result.detail("predict_p99_us", load.window_median(99));
  result.detail("ingest_p50_ms", median(load.ingest_ms));
  result.detail("late_p99_us", late_p99_us);
  result.detail("late_max_us", percentile(load.late_us, 100));
  const bool on_time = late_p99_us <= kMaxLateP99Us;
  result.note("latency_valid",
              on_time ? "true"
                      : "false: generator p99 lateness " +
                            json_number(late_p99_us) + " us");
  if (!on_time)
    std::fprintf(stderr,
                 "serve-mixed: generator p99 lateness %.0f us exceeds %.0f us;"
                 " latencies of this run read high\n",
                 late_p99_us, kMaxLateP99Us);
  result.detail("predicts", static_cast<double>(load.issued));
  result.detail("ingests", static_cast<double>(load.ingests));
  result.detail("error_frac", static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted));
}

void run_untraced(const Options& opts, const ServeShape& shape,
                  Result& result) {
  const std::string ckpt = write_checkpoint(shape, opts, /*traced=*/false);
  std::vector<double> setup_s;
  std::unique_ptr<Stack> st;
  auto set_up_timed = [&](int reps) {
    for (int rep = 0; rep < reps; ++rep) {
      st.reset();
      const int64_t t0 = now_ns();
      st = set_up(shape, opts, /*traced=*/false, ckpt);
      setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  // A serving set-up takes ~35 ms, mostly the first forward pass; 21 of
  // them cost about a second. They run before and after the load, so that
  // their median sees the same stretch of time as the latencies.
  set_up_timed(11);
  const Load load = drive(*st, shape, opts, opts.seconds);
  const uint32_t final_time = st->server->read_view().time;
  st->stop();
  set_up_timed(10);
  st.reset();
  std::remove(ckpt.c_str());

  result.set("setup_s", median(setup_s));
  result.set("peak_mem_mib",
             static_cast<double>(MemoryTracker::instance().peak_bytes()) /
                 (1024.0 * 1024.0));
  result.set("op_ms", load.window_min(50) * 1e-3);
  account(result, load);
  check_serving(opts, result, load, final_time);
}

void run_traced(const Options& opts, const ServeShape& shape, Result& result) {
  const std::string ckpt = write_checkpoint(shape, opts, true);
  std::unique_ptr<Stack> st = set_up(shape, opts, true, ckpt);
  std::remove(ckpt.c_str());
  trace::TracedGraph& tg = *st->traced_graph;
  trace::TracedModel& tm = *st->model->traced;
  const uint64_t get0 = tg.get_graph_stat.calls;
  const double get_s0 = tg.get_graph_stat.seconds();
  const uint64_t step0 = tm.step_stat.calls;
  const double step_s0 = tm.step_stat.seconds();
  trace::arm(true);
  const Load load = drive(*st, shape, opts, opts.seconds);
  trace::arm(false);
  const serve::StatsReport rep = st->server->stats();
  const net::FrontendStats net = st->frontend->stats();
  const uint32_t final_time = st->server->read_view().time;
  st->stop();

  auto per_call_ms = [](double s, uint64_t calls) {
    return calls ? s * 1e3 / static_cast<double>(calls) : 0.0;
  };
  result.set("gpma.append_ms", per_call_ms(tg.append_stat.seconds(),
                                           tg.append_stat.calls));
  result.set("gpma.get_graph_ms",
             per_call_ms(tg.get_graph_stat.seconds() - get_s0,
                         tg.get_graph_stat.calls - get0));
  result.set("graph.device_mib", static_cast<double>(st->graph->device_bytes()) /
                                     (1024.0 * 1024.0));
  result.set("nn.step_ms", per_call_ms(tm.step_stat.seconds() - step_s0,
                                       tm.step_stat.calls - step0));
  result.set("serve.forward_passes", static_cast<double>(rep.forward_passes));
  result.set("serve.forward_ms",
             per_call_ms(rep.forward_seconds, rep.forward_passes));
  result.set("serve.ingest_ms",
             per_call_ms(rep.ingest_seconds, rep.deltas_applied));
  result.set("serve.batches", static_cast<double>(rep.batches));
  result.set("serve.batch_occupancy", rep.batch_occupancy);
  result.set("serve.cache_hits", static_cast<double>(rep.cache_hits));
  result.set("serve.max_queue_depth", static_cast<double>(rep.max_queue_depth));
  result.set("serve.reader_util", mean(rep.reader_utilization));
  result.set("serve.shed_total", static_cast<double>(rep.shed_total));
  result.set("serve.failed", static_cast<double>(rep.failed));
  result.set("net.frames_in", static_cast<double>(net.frames_in));
  result.set("net.frames_out", static_cast<double>(net.frames_out));
  result.set("net.protocol_errors", static_cast<double>(net.protocol_errors));
  result.set("loadgen.late_p99_us", percentile(load.late_us, 99));
  result.set("loadgen.late_max_us", percentile(load.late_us, 100));
  set_kernel_metrics(result, measure_kernels(*st->graph, shape.features,
                                             shape.hidden, opts.seed,
                                             opts.smoke ? 0.02 : 0.2));
  account(result, load);
  check_serving(opts, result, load, final_time);
}

}  // namespace

void reserve_generator_cpu() {
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < 2) return;  // one CPU: generator and server share it
  g_generator_cpu = cpus.back();
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (int c : cpus)
    if (c != g_generator_cpu) CPU_SET(c, &rest);
  g_generator_pinned = ::sched_setaffinity(0, sizeof(rest), &rest) == 0;
}

void run_serve(const Options& opts, Result& result) {
  const ServeShape shape = shape_for(opts);
  // Keep the server's CPUs from going idle for the whole run (set-ups too):
  // a halted vCPU of a virtual machine is slow, and slow by a varying
  // amount, to wake for the next request. In six interleaved 15-s runs
  // the lowest per-window p50 had a quartile spread of 7.4% without
  // keepers and 4.4% with them (0.095 ms against 0.082 ms).
  std::atomic<bool> stop{false};
  JoinAll keepers;
  struct StopKeepers {
    std::atomic<bool>& stop;
    ~StopKeepers() { stop = true; }
  } stop_keepers{stop};
  if (g_generator_pinned)
    for (int cpu : allowed_cpus())
      keepers.threads.emplace_back([cpu, &stop] { keep_busy(cpu, stop); });
  if (opts.trace)
    run_traced(opts, shape, result);
  else
    run_untraced(opts, shape, result);
}

}  // namespace stgbench
