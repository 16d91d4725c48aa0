#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <limits>
#include <unordered_set>
#include <utility>

#include "runtime/analyze.hpp"
#include "tensor/ops.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace stgraph::serve {

using clock = std::chrono::steady_clock;

namespace {

double micros_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

int64_t ns_between(clock::time_point a, clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             clock::now().time_since_epoch())
      .count();
}

std::exception_ptr make_shed(ShedReason reason, const std::string& what) {
  return std::make_exception_ptr(ShedError(reason, what));
}

}  // namespace

std::vector<TenantLane> Server::make_lanes(const ServeConfig& cfg) {
  std::vector<TenantLane> lanes = cfg.tenants;
  if (lanes.empty()) lanes.push_back(TenantLane{});
  std::unordered_set<uint16_t> seen;
  for (const TenantLane& l : lanes)
    STG_CHECK(seen.insert(l.id).second, "serve: duplicate tenant id ", l.id,
              " in ServeConfig::tenants");
  return lanes;
}

Server::Server(STGraphBase& graph, nn::TemporalModel& model, ServeConfig cfg)
    : graph_(graph),
      model_(model),
      cfg_(std::move(cfg)),
      executor_(graph),
      queue_(make_lanes(cfg_), cfg_.queue_capacity),
      admission_(cfg_.max_inflight_ingests) {
  STG_CHECK(cfg_.max_batch > 0, "serve: max_batch must be positive");
  STG_CHECK(cfg_.queue_capacity > 0, "serve: queue_capacity must be positive");
  STG_CHECK(cfg_.num_readers > 0, "serve: num_readers must be positive");
  STG_CHECK(cfg_.circuit_failure_threshold > 0,
            "serve: circuit_failure_threshold must be positive");
  std::vector<uint16_t> tenant_ids;
  tenant_ids.reserve(queue_.num_lanes());
  for (std::size_t i = 0; i < queue_.num_lanes(); ++i)
    tenant_ids.push_back(queue_.lane_id(i));
  stats_.configure(std::move(tenant_ids), cfg_.num_readers);
  readers_.reserve(cfg_.num_readers);
  for (std::size_t i = 0; i < cfg_.num_readers; ++i)
    readers_.push_back(std::make_unique<ReaderContext>(graph_));
}

Server::~Server() { stop(); }

void Server::load(const std::string& path) {
  install(std::make_shared<const ModelSnapshot>(ModelSnapshot::load(path)));
}

void Server::install(std::shared_ptr<const ModelSnapshot> snap) {
  STG_CHECK(snap != nullptr, "serve: cannot install a null snapshot");
  MutexLock lk(exec_mu_);
  snap->install(model_);  // copies params into the live module + eval()
  snapshot_ = std::move(snap);
  stats_.record_swap();
  if (version_ != 0) {
    // Live swap: bump the version so the cached/published step (computed
    // with the old weights) can never serve another batch — readers see
    // the live_version_ move and take the refresh path.
    ++version_;
    publish_view_locked();
  }
}

std::shared_ptr<const ModelSnapshot> Server::snapshot() const {
  MutexLock lk(exec_mu_);
  return snapshot_;
}

void Server::start(Tensor features) {
  STG_CHECK(!running(), "serve: server already running");
  MutexLock lk(exec_mu_);
  STG_CHECK(features.defined() &&
                features.rows() == static_cast<int64_t>(graph_.num_nodes()),
            "serve: start features must have one row per node (",
            graph_.num_nodes(), "), got ",
            features.defined() ? features.rows() : 0);
  time_ = cfg_.start_time;
  STG_CHECK(time_ < graph_.num_timestamps(), "serve: start_time ", time_,
            " outside the graph's ", graph_.num_timestamps(), " timestamps");
  features_ = std::move(features);
  hidden_ = start_hidden_override_.defined()
                ? start_hidden_override_.clone()
                : ((cfg_.resume_hidden && snapshot_ &&
                    snapshot_->hidden().defined())
                       ? snapshot_->hidden().clone()
                       : model_.initial_state(features_.rows()));
  model_.eval();
  executor_.set_inference_mode(true);

  // Build the live edge membership set from the snapshot we start at; it is
  // the server's source of truth for delta validation from here on.
  const SnapshotView view = graph_.get_graph(time_);
  edges_.clear();
  edges_.reserve(static_cast<std::size_t>(view.num_edges) * 2);
  const CsrView& out = view.out_view;
  for (uint32_t s = 0; s < out.num_nodes; ++s)
    for (uint32_t j = out.row_offset[s]; j < out.row_offset[s + 1]; ++j)
      if (out.col_indices[j] != kSpace)
        edges_.insert(edge_key(s, out.col_indices[j]));
  STG_CHECK(edges_.size() == view.num_edges,
            "serve: edge membership scan found ", edges_.size(),
            " edges but the snapshot reports ", view.num_edges);

  version_ = 1;
  step_version_ = 0;
  {
    // No step has been published for this run yet; readers must refresh.
    MutexLock plk(pub_mu_);
    published_.reset();
  }

  // Arm the WAL on a fresh start: journal the exact (features, hidden) we
  // begin from so recovery reseeds bit-identically. recover() opens the
  // writer itself after replay — it must not truncate the log it is
  // reading.
  if (!cfg_.wal_path.empty() && !recovering_) {
    STG_BLOCKING_OK(
        "start(): the kStart record must be durable before the server is "
        "visible — no request can race the journal of its own baseline");
    wal_ = std::make_unique<wal::Writer>(cfg_.wal_path, /*truncate=*/true,
                                         cfg_.wal_sync_every);
    wal::Record rec;
    rec.type = wal::RecordType::kStart;
    rec.time = time_;
    rec.version = version_;
    rec.features = features_;
    rec.hidden = hidden_;
    const uint64_t before = wal_->bytes_written();
    wal_->append(rec);
    stats_.record_wal_append(wal_->bytes_written() - before);
  }

  // Reset the overload/failure machinery for this run.
  admission_.reset();
  consecutive_failures_.store(0, std::memory_order_relaxed);
  circuit_open_.store(false, std::memory_order_relaxed);
  circuit_open_until_ns_.store(0, std::memory_order_relaxed);
  busy_readers_.store(0, std::memory_order_relaxed);
  touch_heartbeat();
  draining_.store(false, std::memory_order_release);

  publish_view_locked();
  queue_.reopen();
  {
    MutexLock wlk(wd_mu_);
    wd_stop_ = false;
  }
  running_.store(true, std::memory_order_release);
  health_.store(HealthState::kHealthy, std::memory_order_release);
  stats_.mark_serving_started(now_ns());
  reader_threads_.reserve(readers_.size());
  for (std::size_t i = 0; i < readers_.size(); ++i)
    reader_threads_.emplace_back(&Server::reader_loop, this, i);
  if (cfg_.watchdog_interval_ms > 0.0)
    watchdog_thread_ = std::thread(&Server::watchdog_loop, this);
  STG_LOG_INFO << "serve: started at t=" << time_ << " ("
               << graph_.format_name() << ", " << view.num_edges
               << " edges, max_batch=" << cfg_.max_batch << ", readers="
               << readers_.size() << ", tenants=" << queue_.num_lanes()
               << (wal_ ? ", wal=" + cfg_.wal_path : std::string()) << ")";
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  health_.store(HealthState::kDraining, std::memory_order_release);
  draining_.store(true, std::memory_order_release);
  queue_.close();  // pushes fail; the reader loops promptly reject the backlog
  {
    MutexLock lk(wd_mu_);
    wd_stop_ = true;
  }
  wd_cv_.notify_all();
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  for (std::thread& t : reader_threads_)
    if (t.joinable()) t.join();
  reader_threads_.clear();
  // Belt and braces: nothing should remain after the loops exit, but a
  // parked waiter is the one failure mode drain must never produce.
  std::vector<PredictRequest> leftovers = queue_.drain_all();
  if (!leftovers.empty()) {
    const std::exception_ptr ep =
        make_shed(ShedReason::kDraining, "serve: server draining");
    for (auto& req : leftovers) {
      stats_.record_shed(ShedReason::kDraining, 1, req.tenant_slot);
      fail_request(req, ep);
    }
  }
  {
    MutexLock lk(exec_mu_);
    if (wal_) {
      STG_BLOCKING_OK(
          "stop(): final WAL sync under exec_mu_ — ingest is drained and the "
          "lock is what guarantees no append races the close");
      wal_->sync();
      wal_.reset();
    }
  }
  draining_.store(false, std::memory_order_release);
  health_.store(HealthState::kStarting, std::memory_order_release);
  STG_LOG_INFO << "serve: stopped after "
               << stats_.report(queue_.max_depth()).requests << " requests";
}

void Server::recover(const std::string& checkpoint_path,
                     const std::string& wal_path) {
  STG_CHECK(!running(), "serve: recover() on a running server");
  Timer timer;
  load(checkpoint_path);

  wal::ReadResult rr = wal::read(wal_path);
  STG_CHECK(!rr.records.empty() &&
                rr.records.front().type == wal::RecordType::kStart,
            "serve: WAL '", wal_path,
            "' has no start record — nothing to recover; start() fresh");
  if (rr.torn_tail) {
    STG_LOG_WARN << "serve: WAL '" << wal_path << "' has a torn tail ("
                 << (rr.total_bytes - rr.valid_bytes)
                 << " bytes past the last valid record) — truncating";
    wal::truncate_torn_tail(wal_path, rr);
  }

  const wal::Record& first = rr.records.front();
  cfg_.start_time = first.time;
  cfg_.wal_path = wal_path;
  recovering_ = true;  // start() must not truncate/journal; we do it below
  start_hidden_override_ = first.hidden;
  try {
    start(first.features.clone());
    // Replay every committed step through the normal ingest path: the
    // forward pass is deterministic, so the replayed hidden states — and
    // therefore the republished read view — are bit-identical to the run
    // that wrote the log.
    for (std::size_t i = 1; i < rr.records.size(); ++i) {
      const wal::Record& rec = rr.records[i];
      STG_CHECK(rec.type == wal::RecordType::kIngest,
                "serve: WAL record ", i, " is not an ingest record");
      ingest_with_deadline(rec.delta, rec.features.clone(), /*budget_ns=*/0);
    }
  } catch (...) {
    recovering_ = false;
    start_hidden_override_ = Tensor();
    throw;
  }
  recovering_ = false;
  start_hidden_override_ = Tensor();

  // Resume journaling into the same log (append mode — the replayed
  // records stay; future ingests extend them).
  {
    MutexLock lk(exec_mu_);
    STG_BLOCKING_OK(
        "recover(): reopening the journal in append mode under exec_mu_ — "
        "replay is done and no ingest may slip in before the writer exists");
    wal_ = std::make_unique<wal::Writer>(wal_path, /*truncate=*/false,
                                         cfg_.wal_sync_every);
  }
  stats_.set_recovery(rr.records.size(), timer.seconds());
  STG_LOG_INFO << "serve: recovered " << rr.records.size()
               << " WAL records in " << timer.seconds() << "s (t=" << cfg_.start_time
               << " + " << (rr.records.size() - 1) << " steps"
               << (rr.torn_tail ? ", torn tail truncated" : "") << ")";
}

PredictResult Server::predict(std::vector<uint32_t> nodes) {
  return predict_blocking(std::move(nodes), /*tenant=*/0,
                          default_deadline_ns());
}

PredictResult Server::predict(std::vector<uint32_t> nodes,
                              std::chrono::nanoseconds deadline) {
  return predict_blocking(std::move(nodes), /*tenant=*/0, deadline.count());
}

PredictResult Server::predict(std::vector<uint32_t> nodes,
                              const PredictOptions& opts) {
  const int64_t budget = opts.deadline_ms < 0
                             ? default_deadline_ns()
                             : static_cast<int64_t>(opts.deadline_ms * 1e6);
  return predict_blocking(std::move(nodes), opts.tenant, budget);
}

PredictResult Server::predict_blocking(std::vector<uint32_t> nodes,
                                       uint16_t tenant, int64_t budget_ns) {
  // The blocking API is the async one with a promise behind the callback.
  // The callback fires exactly once (possibly on this thread, on an
  // admission shed) before fut.get() returns, so the stack storage is safe.
  std::promise<PredictResult> prom;
  std::future<PredictResult> fut = prom.get_future();
  submit_predict(std::move(nodes), tenant, budget_ns,
                 [&prom](std::exception_ptr ep, PredictResult&& res) {
                   if (ep)
                     prom.set_exception(ep);
                   else
                     prom.set_value(std::move(res));
                 });
  return fut.get();  // rethrows the batch's failure or shed, if any
}

void Server::predict_async(std::vector<uint32_t> nodes,
                           const PredictOptions& opts, PredictCallback done) {
  const int64_t budget = opts.deadline_ms < 0
                             ? default_deadline_ns()
                             : static_cast<int64_t>(opts.deadline_ms * 1e6);
  submit_predict(std::move(nodes), opts.tenant, budget, std::move(done));
}

void Server::submit_predict(std::vector<uint32_t> nodes, uint16_t tenant,
                            int64_t budget_ns, PredictCallback done) {
  PredictRequest req;
  req.nodes = std::move(nodes);
  req.tenant = tenant;
  req.tenant_slot = queue_.lane_of(tenant);
  req.done = std::move(done);
  req.enqueued = clock::now();
  if (budget_ns > 0)
    req.deadline = req.enqueued + std::chrono::nanoseconds(budget_ns);
  // Every submission is `issued` exactly once, and every exit below —
  // fulfil, stale, fail, shed — records exactly once against the same
  // tenant slot: the accounting identity the chaos harness asserts.
  stats_.record_issued(req.tenant_slot);

  if (!running()) {
    stats_.record_shed(ShedReason::kDraining, 1, req.tenant_slot);
    fail_request(req, make_shed(ShedReason::kDraining,
                                "serve: predict() on a stopped server"));
    return;
  }

  // Circuit open: answer from the last-good step (version-tagged stale)
  // without queueing behind the failing execution path.
  if (circuit_blocks_now()) {
    serve_stale(req);
    return;
  }

  ShedReason reason = ShedReason::kQueueFull;
  if (admission_.admit_predict(budget_ns, &reason) ==
      AdmissionController::Decision::kShed) {
    stats_.record_shed(reason, 1, req.tenant_slot);
    fail_request(
        req,
        make_shed(reason,
                  "serve: admission shed — expected queue delay " +
                      std::to_string(admission_.expected_queue_delay_ns() /
                                     1000) +
                      "us exceeds the deadline budget " +
                      std::to_string(budget_ns / 1000) + "us"));
    return;
  }

  switch (queue_.push(std::move(req))) {
    case TenantQueueSet::PushResult::kOk:
      return;
    case TenantQueueSet::PushResult::kFull:
      stats_.record_shed(ShedReason::kQueueFull, 1, req.tenant_slot);
      fail_request(req,
                   make_shed(ShedReason::kQueueFull,
                             "serve: tenant " + std::to_string(tenant) +
                                 " queue full — request shed"));
      return;
    case TenantQueueSet::PushResult::kClosed:
      stats_.record_shed(ShedReason::kDraining, 1, req.tenant_slot);
      fail_request(req, make_shed(ShedReason::kDraining,
                                  "serve: server draining — request rejected"));
      return;
  }
}

void Server::serve_stale(PredictRequest& req) {
  MutexLock lk(stale_mu_);
  if (!last_good_out_.defined()) {
    stats_.record_shed(ShedReason::kCircuitOpen, 1, req.tenant_slot);
    fail_request(req,
                 make_shed(ShedReason::kCircuitOpen,
                           "serve: circuit open and no last-good step to "
                           "serve"));
    return;
  }
  const auto n = static_cast<uint32_t>(last_good_out_.rows());
  for (uint32_t node : req.nodes) {
    if (node >= n) {
      stats_.record_failed(1, req.tenant_slot);
      fail_request(req, std::make_exception_ptr(StgError(
                            "serve: predict node " + std::to_string(node) +
                            " outside the " + std::to_string(n) +
                            "-node graph")));
      return;
    }
  }
  PredictResult res;
  res.timestamp = last_good_time_;
  res.version = last_good_version_;
  res.stale = true;
  res.outputs = req.nodes.empty() ? last_good_out_
                                  : ops::gather_rows(last_good_out_, req.nodes);
  res.queue_micros = 0.0;
  res.total_micros = micros_between(req.enqueued, clock::now());
  stats_.record_stale_served(res.total_micros,
                             static_cast<uint64_t>(res.outputs.rows()),
                             req.tenant_slot);
  complete_request(req, std::move(res));
}

void Server::ingest(const EdgeDelta& delta, Tensor next_features) {
  ingest_with_deadline(delta, std::move(next_features), default_deadline_ns());
}

void Server::ingest(const EdgeDelta& delta, Tensor next_features,
                    std::chrono::nanoseconds deadline) {
  ingest_with_deadline(delta, std::move(next_features), deadline.count());
}

void Server::ingest_with_deadline(const EdgeDelta& delta, Tensor next_features,
                                  int64_t budget_ns) {
  if (!running()) {
    stats_.record_shed(ShedReason::kDraining);
    throw ShedError(ShedReason::kDraining,
                    "serve: ingest() on a stopped server");
  }
  ShedReason reason = ShedReason::kQueueFull;
  if (admission_.admit_ingest(&reason) ==
      AdmissionController::Decision::kShed) {
    stats_.record_shed(reason);
    throw ShedError(reason, "serve: ingest quota exhausted (" +
                                std::to_string(admission_.inflight_ingests()) +
                                " in flight)");
  }
  struct Ticket {
    AdmissionController& a;
    ~Ticket() { a.release_ingest(); }
  } ticket{admission_};

  Timer timer;
  if (budget_ns > 0) {
    MutexTimedLock lk(exec_mu_, std::chrono::nanoseconds(budget_ns));
    if (!lk.owns()) {
      stats_.record_shed(ShedReason::kDeadlineExpired);
      throw ShedError(ShedReason::kDeadlineExpired,
                      "serve: ingest could not acquire the execution lock "
                      "within its " +
                          std::to_string(budget_ns / 1000000) + "ms deadline");
    }
    ingest_locked(delta, std::move(next_features), timer);
  } else {
    MutexLock lk(exec_mu_);
    ingest_locked(delta, std::move(next_features), timer);
  }
}

void Server::ingest_locked(const EdgeDelta& delta, Tensor next_features,
                           const Timer& timer) {
  const auto n = static_cast<uint32_t>(graph_.num_nodes());
  STG_CHECK(next_features.defined() &&
                next_features.rows() == static_cast<int64_t>(n) &&
                next_features.cols() == features_.cols(),
            "serve: ingest features must be [", n, ", ", features_.cols(),
            "]");

  // ---- validate the whole delta BEFORE touching anything ----------------
  // A delta that fails any check (or the injected fault below) must leave
  // the read view on the previous consistent snapshot.
  std::unordered_set<uint64_t> batch_del;
  batch_del.reserve(delta.deletions.size() * 2);
  for (const auto& [s, d] : delta.deletions) {
    STG_CHECK(s < n && d < n, "serve: delta deletes edge (", s, ",", d,
              ") outside the ", n, "-node graph");
    const uint64_t k = edge_key(s, d);
    STG_CHECK(edges_.count(k) != 0, "serve: delta deletes non-existent edge (",
              s, ",", d, ")");
    STG_CHECK(batch_del.insert(k).second, "serve: delta deletes edge (", s,
              ",", d, ") twice");
  }
  std::unordered_set<uint64_t> batch_add;
  batch_add.reserve(delta.additions.size() * 2);
  for (const auto& [s, d] : delta.additions) {
    STG_CHECK(s < n && d < n, "serve: delta adds edge (", s, ",", d,
              ") outside the ", n, "-node graph");
    const uint64_t k = edge_key(s, d);
    STG_CHECK(edges_.count(k) == 0, "serve: delta re-adds existing edge (", s,
              ",", d, ")");
    STG_CHECK(batch_del.count(k) == 0 && batch_add.insert(k).second,
              "serve: delta lists edge (", s, ",", d, ") more than once");
  }

  STG_FAILPOINT("serve.delta.apply",
                throw StgError("failpoint serve.delta.apply fired at t=" +
                               std::to_string(time_)));

  // Timeline-position checks come before the forward pass and the WAL
  // append: a step that cannot commit must not be journaled.
  const uint32_t next = time_ + 1;
  const bool has_edges = !delta.additions.empty() || !delta.deletions.empty();
  const bool appendable =
      graph_.supports_append() && next == graph_.num_timestamps();
  if (has_edges) {
    STG_CHECK(graph_.supports_append(), "serve: ", graph_.format_name(),
              " cannot ingest edge deltas");
    STG_CHECK(next == graph_.num_timestamps(),
              "serve: can only append at the head of the timeline (t=", next,
              ", head=", graph_.num_timestamps(), ")");
  } else if (!appendable) {
    STG_CHECK(next < graph_.num_timestamps(), "serve: no timestamp ", next,
              " to advance to and ", graph_.format_name(),
              " cannot append one");
  }

  // h_{t+1} is a function of (x_t, h_t) on snapshot t — compute it before
  // the graph moves. Reuses the cached step when a batch already ran here.
  // A failed forward counts against the circuit like a failed batch. The
  // writer path runs on its own executor_ — never a reader's.
  try {
    if (ensure_step_locked(executor_)) stats_.record_cache_hit();
  } catch (...) {
    executor_.abort_sequence();
    step_version_ = 0;
    note_batch_failure();
    throw;
  }

  // ---- write-ahead point -------------------------------------------------
  // The step is fully validated and computed; journal it before mutating
  // the graph. A crash after this append but before the in-memory commit
  // replays to exactly the state this commit would have produced. A
  // *failed* append rolls the file back and aborts the ingest with nothing
  // committed.
  if (wal_) {
    STG_BLOCKING_OK(
        "ingest_locked(): the WAL append under exec_mu_ IS the commit point "
        "— write-ahead means durable before the in-memory mutation, and "
        "exec_mu_ is what orders the journal against concurrent queries");
    wal::Record rec;
    rec.type = wal::RecordType::kIngest;
    rec.time = next;
    rec.version = version_ + 1;
    rec.delta = delta;
    rec.features = next_features;
    const uint64_t before = wal_->bytes_written();
    wal_->append(rec);
    stats_.record_wal_append(wal_->bytes_written() - before);
  }

  if (has_edges || appendable) graph_.append_delta(delta);

  // ---- commit point ------------------------------------------------------
  hidden_ = step_h_next_;
  features_ = std::move(next_features);
  time_ = next;
  ++version_;
  step_version_ = 0;
  for (uint64_t k : batch_del) edges_.erase(k);
  for (uint64_t k : batch_add) edges_.insert(k);
  publish_view_locked();
  note_batch_success();
  stats_.record_ingest(delta.additions.size() + delta.deletions.size(),
                       timer.seconds());
}

ReadView Server::read_view() const {
  MutexLock lk(view_mu_);
  return view_;
}

StatsReport Server::stats() const {
  return stats_.report(queue_.max_depth(),
                       health_.load(std::memory_order_acquire), now_ns());
}

void Server::publish_view_locked() {
  {
    MutexLock lk(view_mu_);
    view_ = {time_, version_, static_cast<uint32_t>(edges_.size())};
  }
  // Readers compare their published step against this mirror without
  // taking exec_mu_; store AFTER the view so a reader that refreshes on a
  // version bump finds the committed state.
  live_version_.store(version_, std::memory_order_release);
}

bool Server::ensure_step_locked(core::TemporalExecutor& exec) {
  if (step_version_ == version_) return true;
  NoGradGuard ng;  // covers whichever thread runs the step (thread-local)
  Timer timer;
  exec.begin_forward_step(time_);
  const float* weights =
      cfg_.edge_weights.empty() ? nullptr : cfg_.edge_weights.data();
  std::pair<Tensor, Tensor> stepped;
  {
    STG_BLOCKING_OK(
        "model step under exec_mu_: its kernels fork-join on pool lanes, and "
        "lane jobs are compute loops that never take a server lock");
    stepped = model_.step(exec, features_, hidden_, weights);
  }
  auto& [out, h_next] = stepped;
  STG_FAILPOINT("serve.step.poison",
                out.data()[0] = std::numeric_limits<float>::quiet_NaN());
  if (cfg_.check_outputs) {
    const float* p = out.data();
    const int64_t numel = out.rows() * out.cols();
    for (int64_t i = 0; i < numel; ++i)
      STG_CHECK(std::isfinite(p[i]), "serve: non-finite model output at t=",
                time_, " (flat index ", i, ") — refusing to serve poison");
  }
  step_out_ = out;
  step_h_next_ = h_next;
  step_version_ = version_;
  stats_.record_forward(timer.seconds());
  // This step is known good: make it the stale-read fallback.
  {
    MutexLock slk(stale_mu_);
    last_good_out_ = step_out_;
    last_good_time_ = time_;
    last_good_version_ = version_;
  }
  return false;
}

std::shared_ptr<const PublishedStep> Server::published_step() const {
  MutexLock lk(pub_mu_);
  return published_;
}

std::shared_ptr<const PublishedStep> Server::refresh_step(
    std::size_t reader_idx) {
  MutexLock lk(exec_mu_);
  core::TemporalExecutor& exec = readers_[reader_idx]->executor;
  try {
    if (ensure_step_locked(exec)) stats_.record_cache_hit();
  } catch (...) {
    exec.abort_sequence();
    step_version_ = 0;
    throw;
  }
  auto step = std::make_shared<PublishedStep>();
  step->out = step_out_;
  step->time = time_;
  step->version = version_;  // == step_version_ here
  {
    // Published versions are monotone: we hold exec_mu_, and every other
    // publisher does too, so version_ can only have grown since the last
    // publication.
    MutexLock plk(pub_mu_);
    published_ = step;
  }
  return step;
}

bool Server::circuit_blocks_now() const {
  if (!circuit_open_.load(std::memory_order_acquire)) return false;
  // Past the cooldown the circuit half-opens: requests flow to the exec
  // path again as probes; the first success closes it, a failure re-arms
  // the cooldown.
  return now_ns() < circuit_open_until_ns_.load(std::memory_order_acquire);
}

void Server::trip_circuit() {
  circuit_open_until_ns_.store(
      now_ns() + static_cast<int64_t>(cfg_.circuit_cooldown_ms * 1e6),
      std::memory_order_release);
  if (!circuit_open_.exchange(true, std::memory_order_acq_rel)) {
    stats_.record_circuit_trip();
    if (running()) health_.store(HealthState::kDegraded,
                                 std::memory_order_release);
    STG_LOG_WARN << "serve: circuit OPEN (cooldown "
                 << cfg_.circuit_cooldown_ms
                 << "ms) — serving last-good step";
  }
}

void Server::note_batch_failure() {
  const uint32_t fails =
      consecutive_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (fails >= cfg_.circuit_failure_threshold) trip_circuit();
}

void Server::note_batch_success() {
  consecutive_failures_.store(0, std::memory_order_release);
  if (circuit_open_.exchange(false, std::memory_order_acq_rel)) {
    if (running()) health_.store(HealthState::kHealthy,
                                 std::memory_order_release);
    STG_LOG_INFO << "serve: circuit CLOSED — probe succeeded";
  }
}

void Server::reader_loop(std::size_t reader_idx) {
  NoGradGuard ng;
  while (true) {
    std::vector<PredictRequest> batch = queue_.pop_batch(cfg_.max_batch);
    if (batch.empty()) return;  // queue closed and drained
    touch_heartbeat();
    busy_readers_.fetch_add(1, std::memory_order_acq_rel);
    const int64_t t0 = now_ns();
    process_batch(reader_idx, std::move(batch));
    stats_.add_reader_busy(reader_idx,
                           static_cast<uint64_t>(now_ns() - t0));
    busy_readers_.fetch_sub(1, std::memory_order_acq_rel);
    touch_heartbeat();
  }
}

void Server::process_batch(std::size_t reader_idx,
                           std::vector<PredictRequest> batch) {
  const auto dequeued = clock::now();

  // Draining: reject promptly with a typed error — never execute, never
  // leave a waiter parked behind a shutdown.
  if (draining_.load(std::memory_order_acquire)) {
    const std::exception_ptr ep =
        make_shed(ShedReason::kDraining, "serve: server draining");
    for (auto& req : batch) {
      stats_.record_shed(ShedReason::kDraining, 1, req.tenant_slot);
      fail_request(req, ep);
    }
    return;
  }

  // Deadline enforcement at dequeue: an expired request is shed without
  // spending a forward pass on it. Queue-delay samples feed the admission
  // controller's early-shed estimate either way.
  std::vector<PredictRequest> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    admission_.observe_queue_delay(ns_between(req.enqueued, dequeued));
    if (dequeued > req.deadline) {
      stats_.record_shed(ShedReason::kDeadlineExpired, 1, req.tenant_slot);
      fail_request(req, make_shed(
          ShedReason::kDeadlineExpired,
          "serve: deadline expired after " +
              std::to_string(static_cast<int64_t>(
                  micros_between(req.enqueued, dequeued))) +
              "us in queue"));
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;
  stats_.record_batch(live.size());

  std::size_t done = 0;
  try {
    // The per-batch failpoints fire OUTSIDE the exec lock: injected batch
    // latency models per-batch service time, and with N readers sleeping
    // concurrently the injected floor overlaps — which is exactly the
    // scaling the reader-replication bench measures.
    STG_FAILPOINT("serve.batch.delay",
                  std::this_thread::sleep_for(std::chrono::milliseconds(50)));
    touch_heartbeat();
    STG_FAILPOINT("serve.batch.dispatch",
                  throw StgError("failpoint serve.batch.dispatch fired"));

    // Fast path: the published step matches the live version — serve row
    // gathers without the exec lock. Slow path: whichever reader gets to
    // exec_mu_ first computes-or-reuses the step and publishes it.
    std::shared_ptr<const PublishedStep> step = published_step();
    if (step && step->version ==
                    live_version_.load(std::memory_order_acquire)) {
      stats_.record_cache_hit();
    } else {
      step = refresh_step(reader_idx);
    }
    note_batch_success();

    const auto fulfilled = clock::now();
    const auto num_nodes = static_cast<uint32_t>(step->out.rows());
    for (; done < live.size(); ++done) {
      PredictRequest& req = live[done];
      // Deadline enforcement at completion: the pass ran, but a client
      // whose budget elapsed mid-batch still gets the typed shed (it may
      // already have moved on).
      if (fulfilled > req.deadline) {
        stats_.record_shed(ShedReason::kDeadlineExpired, 1, req.tenant_slot);
        fail_request(req, make_shed(
            ShedReason::kDeadlineExpired,
            "serve: request completed past its deadline"));
        continue;
      }
      // A bad node id is that client's problem, not an execution fault:
      // fail only this request, like serve_stale does. Throwing here would
      // fail the rest of the batch (other tenants included) and tick the
      // circuit breaker toward stale-serving for everyone.
      bool bad_node = false;
      for (uint32_t node : req.nodes) {
        if (node >= num_nodes) {
          stats_.record_failed(1, req.tenant_slot);
          fail_request(req, std::make_exception_ptr(StgError(
                                "serve: predict node " +
                                std::to_string(node) + " outside the " +
                                std::to_string(num_nodes) + "-node graph")));
          bad_node = true;
          break;
        }
      }
      if (bad_node) continue;
      PredictResult res;
      res.timestamp = step->time;
      res.version = step->version;
      res.outputs = req.nodes.empty() ? step->out
                                      : ops::gather_rows(step->out, req.nodes);
      res.queue_micros = micros_between(req.enqueued, dequeued);
      res.total_micros = micros_between(req.enqueued, clock::now());
      stats_.record_request(res.total_micros,
                            static_cast<uint64_t>(res.outputs.rows()),
                            req.tenant_slot, reader_idx);
      complete_request(req, std::move(res));
    }
  } catch (...) {
    // A failed dispatch fails this batch's outstanding requests but the
    // server keeps serving (refresh_step already unwound the executor if
    // the throw came mid-forward). Repeated failures trip the circuit
    // into stale-serving mode.
    note_batch_failure();
    const std::exception_ptr ep = std::current_exception();
    for (; done < live.size(); ++done) {
      stats_.record_failed(1, live[done].tenant_slot);
      fail_request(live[done], ep);
    }
  }
}

void Server::watchdog_loop() {
  const auto interval = std::chrono::nanoseconds(
      static_cast<int64_t>(cfg_.watchdog_interval_ms * 1e6));
  const auto stall_ns =
      static_cast<int64_t>(cfg_.watchdog_stall_ms * 1e6);
  MutexLock lk(wd_mu_);
  while (!wd_stop_) {
    wd_cv_.wait_for(lk, interval);
    if (wd_stop_) break;
    if (busy_readers_.load(std::memory_order_acquire) == 0) continue;
    const int64_t hb = heartbeat_ns_.load(std::memory_order_acquire);
    if (now_ns() - hb < stall_ns) continue;
    // At least one reader has been inside one batch past the stall budget
    // with no liveness signal from any of them. We cannot rescue the
    // requests already in flight, but we can stop new ones from piling up
    // behind the stall: fail the circuit (predicts divert to the stale
    // path) and flush everything still queued.
    stats_.record_watchdog_stall();
    STG_LOG_WARN << "serve: watchdog — reader loop stalled for "
                 << (now_ns() - hb) / 1000000 << "ms; tripping circuit";
    trip_circuit();
    std::vector<PredictRequest> waiting = queue_.drain_all();
    if (!waiting.empty()) {
      const std::exception_ptr ep = make_shed(
          ShedReason::kCircuitOpen,
          "serve: reader thread stalled — request flushed by watchdog");
      for (auto& req : waiting) {
        stats_.record_shed(ShedReason::kCircuitOpen, 1, req.tenant_slot);
        fail_request(req, ep);
      }
    }
  }
}

}  // namespace stgraph::serve
