// Streaming inference server (the serve subsystem's core): owns a frozen
// TemporalModel over a live graph object and exposes two concurrent entry
// points —
//
//   predict(nodes)  — micro-batched inference, sync (blocking) or async
//                     (predict_async, completion callback — what the
//                     network front-end uses). Requests land in one
//                     bounded FIFO queue; N replicated READER threads pop
//                     them in arrival-order micro-batches of up to
//                     ServeConfig::max_batch and serve an entire batch
//                     from at most ONE forward pass. The step output for
//                     the current server version is computed once (by
//                     whichever reader gets there first, on its own
//                     inference-mode TemporalExecutor under the exec
//                     lock), then PUBLISHED as an immutable snapshot —
//                     every other reader serves row gathers from the
//                     published step without touching the exec lock, so
//                     predict() throughput scales with reader count while
//                     outputs stay bit-identical to the single-executor
//                     path (the pass runs once per version either way).
//
//   ingest(delta, x) — the single WRITER path: advance the timeline by one
//                      step: validate the edge delta against the live edge
//                      set, compute h_{t+1} from (x_t, h_t) on the OLD
//                      snapshot, journal the step to the WAL (when armed),
//                      append the delta to the graph, commit the new
//                      (time, features, hidden) and bump the version.
//                      Validation happens before any mutation, so a
//                      rejected or fault-injected delta leaves the
//                      published read view on the previous consistent
//                      snapshot.
//
// Overload & failure posture (docs/serving.md "Failure semantics"):
//   * every request carries a deadline (ServeConfig::default_deadline_ms,
//     per-call override) enforced at admission (queue-delay early shed),
//     at dequeue (expired requests never execute) and at completion;
//   * the bounded queue + an AdmissionController shed with a typed
//     ShedReason taxonomy (queue_full / deadline_expired / draining /
//     circuit_open) counted per reason in ServerStats — no request is ever
//     silently dropped;
//   * a circuit breaker trips after consecutive batch failures or
//     non-finite outputs; while open, predict() serves the last-good
//     cached step (version-tagged stale) instead of erroring, and a
//     cooldown admits a probe batch that closes the circuit on success;
//   * a watchdog thread detects stalled reader loops, fails the circuit,
//     and flushes parked requests rather than hanging clients;
//   * with ServeConfig::wal_path set, every committed step is journaled
//     (CRC-framed, fsync'd) and recover(checkpoint, wal) replays the log
//     on top of an STGT snapshot to republish a bit-identical read view
//     after kill -9, truncating any torn tail first.
//
// Consistency model: exec_mu_ serializes all model/graph/executor access
// (one model instance; graph positioning mutates shared state, so the
// forward pass itself is single-stream, per the paper's execution model).
// What clients observe without that lock: the published ReadView, the
// ModelSnapshot handle, the last-good stale step, and the published
// current-version step (pub_mu_, a pointer copy) — all swap atomically.
// Failpoints: serve.checkpoint.load (in ModelSnapshot::load),
// serve.delta.apply, serve.batch.dispatch, serve.batch.delay (injected
// latency), serve.step.poison (NaN output), serve.wal.append.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/executor.hpp"
#include "graph/stgraph_base.hpp"
#include "nn/models.hpp"
#include "runtime/mutex.hpp"
#include "serve/admission.hpp"
#include "serve/health.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/request_queue.hpp"
#include "serve/stats.hpp"
#include "serve/wal.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace stgraph::serve {

struct ServeConfig {
  std::size_t max_batch = 16;       ///< micro-batch ceiling per dispatch
  std::size_t queue_capacity = 1024;///< queue bound before load shedding
  uint32_t start_time = 0;          ///< timestamp start() positions at
  bool resume_hidden = false;       ///< seed h from the snapshot's carried
                                    ///< hidden state instead of initial_state
  std::vector<float> edge_weights;  ///< optional per-edge weights (by eid)

  // ---- replicated readers ------------------------------------------------
  /// Reader threads serving predict() concurrently. Each has its own
  /// inference-mode TemporalExecutor and latency histogram; all serve the
  /// same published step, so outputs are reader-count-invariant.
  std::size_t num_readers = 1;

  // ---- deadlines & admission control ------------------------------------
  /// Default per-request deadline for predict() and ingest(); 0 = none.
  /// Per-call overloads override it.
  double default_deadline_ms = 0.0;
  /// Concurrent-ingest quota (waiters included); exceeding it sheds the
  /// call with queue_full. 0 disables the quota.
  std::size_t max_inflight_ingests = 4;

  // ---- circuit breaker & degraded mode ----------------------------------
  /// Consecutive batch failures (dispatch faults, non-finite outputs) that
  /// trip the circuit into DEGRADED / stale-serving mode.
  uint32_t circuit_failure_threshold = 3;
  /// How long the circuit stays open before one probe batch is admitted.
  double circuit_cooldown_ms = 250.0;
  /// Scan every fresh forward output for NaN/Inf and fail the batch (and
  /// eventually the circuit) instead of serving poison.
  bool check_outputs = true;

  // ---- watchdog ----------------------------------------------------------
  /// Watchdog poll period; 0 disables the watchdog thread.
  double watchdog_interval_ms = 100.0;
  /// A batch older than this without a heartbeat counts as a stalled
  /// reader loop: the circuit fails and parked requests are flushed.
  double watchdog_stall_ms = 2000.0;

  // ---- durability --------------------------------------------------------
  /// When non-empty, journal the start step and every committed ingest to
  /// this write-ahead log; recover() replays it after a crash.
  std::string wal_path;
  /// fsync the WAL after every Nth record (1 = every record; 0 = never).
  uint32_t wal_sync_every = 1;
};

/// Snapshot-consistent summary of what the server is currently serving.
/// version bumps on every committed ingest and every snapshot install;
/// a PredictResult carries the version its outputs were computed at.
struct ReadView {
  uint32_t time = 0;
  uint64_t version = 0;
  uint32_t num_edges = 0;
};

/// Immutable forward-pass output for one server version, shared by every
/// reader thread as shared_ptr<const PublishedStep> — the lock-free read
/// path of the replicated-reader design.
struct PublishedStep {
  Tensor out;            ///< full [num_nodes, out_features] step output
  uint32_t time = 0;
  uint64_t version = 0;
};

class Server {
 public:
  /// The graph and model outlive the server; the server owns its own
  /// executors (inference mode) so a trainer's executor is never shared.
  Server(STGraphBase& graph, nn::TemporalModel& model, ServeConfig cfg = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Load an STGT checkpoint and install it (serve.checkpoint.load
  /// failpoint fires inside). Callable before start() or live.
  void load(const std::string& path);
  /// Swap the active model snapshot: copies the frozen parameters into the
  /// live module under the exec lock and bumps the version, so in-flight
  /// batches finish on the old weights and the next batch runs on the new
  /// ones — the atomic snapshot swap.
  void install(std::shared_ptr<const ModelSnapshot> snap);
  std::shared_ptr<const ModelSnapshot> snapshot() const;

  /// Begin serving at cfg.start_time with the given node features
  /// ([num_nodes, F]). Spawns the reader threads (and the watchdog, when
  /// enabled); arms the WAL when cfg.wal_path is set.
  void start(Tensor features);
  /// Graceful shutdown: close the queues, promptly reject everything still
  /// queued with a `draining` shed (never execute it, never leave a client
  /// parked), drain the readers, sync the WAL, join the threads.
  /// Idempotent; the destructor calls it.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Crash recovery: install the STGT checkpoint, then replay `wal_path`
  /// (truncating a torn tail first) — the kStart record restores the exact
  /// start features/hidden, each kIngest record re-runs the committed
  /// step, and the server resumes serving AND journaling into the same
  /// log. The republished read view is bit-identical to a process that
  /// never crashed at the same timestep. Call instead of load()+start().
  void recover(const std::string& checkpoint_path,
               const std::string& wal_path);

  /// Blocking predict under the config's default deadline. Empty `nodes`
  /// returns the full output matrix; otherwise one row per listed node.
  /// Throws ShedError when the request is shed (typed reason) and StgError
  /// when the batch failed (fault injection, bad node id). While the
  /// circuit is open, returns the last-good step with `stale = true`.
  PredictResult predict(std::vector<uint32_t> nodes = {});
  /// predict() with a per-call deadline override (<= 0 disables).
  PredictResult predict(std::vector<uint32_t> nodes,
                        std::chrono::nanoseconds deadline);

  /// Non-blocking submission under the config's default deadline: `done`
  /// is invoked exactly once — with the result, or with the typed
  /// exception a blocking predict() would have thrown — from whichever
  /// thread completes the request (possibly the calling thread, on an
  /// admission shed). The network front-end's request path; never parks a
  /// thread per in-flight request.
  void predict_async(std::vector<uint32_t> nodes, PredictCallback done);

  /// Advance the served timeline by one timestep (synchronous, called from
  /// any thread) under the config's default deadline. For appendable
  /// graphs the delta extends the timeline; a graph with precomputed
  /// snapshots (static-temporal) only accepts empty deltas and steps
  /// within its existing history.
  void ingest(const EdgeDelta& delta, Tensor next_features);
  /// ingest() with a per-call deadline override (<= 0 disables).
  void ingest(const EdgeDelta& delta, Tensor next_features,
              std::chrono::nanoseconds deadline);

  ReadView read_view() const;
  HealthState health() const {
    return health_.load(std::memory_order_acquire);
  }
  StatsReport stats() const;
  std::size_t num_readers() const { return readers_.size(); }

 private:
  using clock = std::chrono::steady_clock;

  /// One replicated reader: a private inference-mode executor (used only
  /// when this reader is the one refreshing the step, under exec_mu_).
  /// Latency histograms and busy-time counters live in ServerStats, keyed
  /// by reader index.
  struct ReaderContext {
    explicit ReaderContext(STGraphBase& graph) : executor(graph) {
      executor.set_inference_mode(true);
    }
    core::TemporalExecutor executor;
  };

  void reader_loop(std::size_t reader_idx);
  void process_batch(std::size_t reader_idx,
                     std::vector<PredictRequest> batch);
  void watchdog_loop();
  void submit_predict(std::vector<uint32_t> nodes, int64_t budget_ns,
                      PredictCallback done);
  PredictResult predict_blocking(std::vector<uint32_t> nodes,
                                 int64_t budget_ns);
  void serve_stale(PredictRequest& req) STG_EXCLUDES(stale_mu_);
  void ingest_with_deadline(const EdgeDelta& delta, Tensor next_features,
                            int64_t budget_ns);
  void ingest_locked(const EdgeDelta& delta, Tensor next_features,
                     const Timer& timer) STG_REQUIRES(exec_mu_);
  /// Run (or reuse) the forward pass for the current version on `exec`.
  /// Returns true when the cached step was reused. Fresh outputs are
  /// NaN-checked and become the last-good stale fallback.
  bool ensure_step_locked(core::TemporalExecutor& exec)
      STG_REQUIRES(exec_mu_) STG_EXCLUDES(stale_mu_);
  void publish_view_locked() STG_REQUIRES(exec_mu_) STG_EXCLUDES(view_mu_);
  /// Lock-free copy of the published step (pub_mu_ pointer copy only).
  std::shared_ptr<const PublishedStep> published_step() const
      STG_EXCLUDES(pub_mu_);
  /// Slow path: compute (or reuse) the step for the current version under
  /// exec_mu_ on this reader's executor, publish it, return it.
  std::shared_ptr<const PublishedStep> refresh_step(std::size_t reader_idx)
      STG_EXCLUDES(exec_mu_, pub_mu_);

  // ---- circuit breaker ----------------------------------------------------
  /// True while the circuit is open and the cooldown has not elapsed
  /// (after cooldown, requests pass through as probes).
  bool circuit_blocks_now() const;
  /// Force the circuit open (failure threshold reached or watchdog stall).
  void trip_circuit();
  void note_batch_failure();
  void note_batch_success();
  void touch_heartbeat() {
    heartbeat_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now().time_since_epoch())
            .count(),
        std::memory_order_release);
  }
  int64_t default_deadline_ns() const {
    return static_cast<int64_t>(cfg_.default_deadline_ms * 1e6);
  }

  static uint64_t edge_key(uint32_t s, uint32_t d) {
    return (static_cast<uint64_t>(s) << 32) | d;
  }

  STGraphBase& graph_;
  nn::TemporalModel& model_;
  ServeConfig cfg_;
  /// Writer-path executor (ingest/recover compute h_{t+1} on it).
  core::TemporalExecutor executor_ STG_GUARDED_BY(exec_mu_);
  RequestQueue queue_;
  AdmissionController admission_;
  ServerStats stats_;
  /// Replicated reader contexts — sized at construction, immutable after.
  std::vector<std::unique_ptr<ReaderContext>> readers_;
  std::vector<std::thread> reader_threads_;
  std::thread watchdog_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<HealthState> health_{HealthState::kStarting};

  // ---- circuit breaker state (atomics: read by clients without locks) ----
  std::atomic<uint32_t> consecutive_failures_{0};
  std::atomic<bool> circuit_open_{false};
  std::atomic<int64_t> circuit_open_until_ns_{0};
  /// Last liveness signal from any reader thread (steady-clock ns).
  std::atomic<int64_t> heartbeat_ns_{0};
  /// Readers currently inside a batch.
  std::atomic<uint32_t> busy_readers_{0};

  // ---- watchdog signalling ------------------------------------------------
  Mutex wd_mu_{"serve::Server::wd_mu_"};
  ConditionVariable wd_cv_;
  bool wd_stop_ STG_GUARDED_BY(wd_mu_) = false;

  /// Serializes all model/graph/executor access; acquired before view_mu_,
  /// pub_mu_ and stale_mu_.
  mutable Mutex exec_mu_ STG_ACQUIRED_BEFORE(view_mu_, stale_mu_, pub_mu_){
      "serve::Server::exec_mu_"};
  std::shared_ptr<const ModelSnapshot> snapshot_ STG_GUARDED_BY(exec_mu_);
  /// Live edge set (delta validation).
  std::unordered_set<uint64_t> edges_ STG_GUARDED_BY(exec_mu_);
  /// x_t of the current timestep.
  Tensor features_ STG_GUARDED_BY(exec_mu_);
  /// h_t entering the current timestep.
  Tensor hidden_ STG_GUARDED_BY(exec_mu_);
  uint32_t time_ STG_GUARDED_BY(exec_mu_) = 0;
  /// 0 = not started; bumped per ingest/install.
  uint64_t version_ STG_GUARDED_BY(exec_mu_) = 0;
  /// Cached model output for step_version_.
  Tensor step_out_ STG_GUARDED_BY(exec_mu_);
  /// Cached next hidden for step_version_.
  Tensor step_h_next_ STG_GUARDED_BY(exec_mu_);
  /// 0 = cache invalid.
  uint64_t step_version_ STG_GUARDED_BY(exec_mu_) = 0;
  /// Write-ahead log (null when durability is off or during replay).
  std::unique_ptr<wal::Writer> wal_ STG_GUARDED_BY(exec_mu_);
  /// recover() in progress: start() must not truncate/journal the log the
  /// replay is reading. Only touched with the server stopped.
  bool recovering_ = false;
  /// Hidden state recover() restores instead of initial_state().
  Tensor start_hidden_override_;

  mutable Mutex view_mu_{"serve::Server::view_mu_"};
  ReadView view_ STG_GUARDED_BY(view_mu_);
  /// Mirror of version_ readable without exec_mu_ (readers' staleness
  /// check); written only inside publish_view_locked().
  std::atomic<uint64_t> live_version_{0};

  /// Published current-version step (readers' lock-free serve path).
  mutable Mutex pub_mu_{"serve::Server::pub_mu_"};
  std::shared_ptr<const PublishedStep> published_ STG_GUARDED_BY(pub_mu_);

  /// Last-good step for stale-but-bounded reads while the circuit is open.
  mutable Mutex stale_mu_{"serve::Server::stale_mu_"};
  Tensor last_good_out_ STG_GUARDED_BY(stale_mu_);
  uint32_t last_good_time_ STG_GUARDED_BY(stale_mu_) = 0;
  uint64_t last_good_version_ STG_GUARDED_BY(stale_mu_) = 0;
};

}  // namespace stgraph::serve
