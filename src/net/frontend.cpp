#include "net/frontend.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <utility>

#include "runtime/analyze.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace stgraph::net {

namespace {

/// Minimal JSON string escaping for error messages and health strings.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::vector<uint8_t> to_bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::string predict_json_line(const PredictWire& r) {
  std::string out = "{\"time\": " + std::to_string(r.time) +
                    ", \"version\": " + std::to_string(r.version) +
                    ", \"stale\": " + (r.stale ? "true" : "false") +
                    ", \"outputs\": [";
  const float* p = r.outputs.data();
  const int64_t rows = r.outputs.rows(), cols = r.outputs.cols();
  for (int64_t i = 0; i < rows; ++i) {
    out += i ? ", [" : "[";
    for (int64_t j = 0; j < cols; ++j) {
      if (j) out += ", ";
      out += std::to_string(p[i * cols + j]);
    }
    out += "]";
  }
  out += "]}\n";
  return out;
}

std::string error_json_line(ErrorCode code, const std::string& message) {
  return std::string("{\"error\": \"") + to_string(code) +
         "\", \"message\": \"" + json_escape(message) + "\"}\n";
}

}  // namespace

Frontend::Frontend(serve::Server& server, FrontendConfig cfg)
    : server_(server), cfg_(std::move(cfg)) {}

Frontend::~Frontend() { stop(); }

void Frontend::start() {
  STG_CHECK(!running(), "net: frontend already running");
  listener_ = std::make_unique<Listener>(cfg_.host, cfg_.port);
  {
    MutexLock lk(ingest_mu_);
    ingest_stop_ = false;
  }
  accepting_.store(true, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] {
    loop_.add(listener_->fd(), EPOLLIN, [this](uint32_t) { on_accept(); });
    loop_.run();
  });
  ingest_thread_ = std::thread(&Frontend::ingest_loop, this);
  STG_LOG_INFO << "net: frontend listening on " << cfg_.host << ":"
               << listener_->port();
}

void Frontend::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop accepting — existing connections keep draining.
  accepting_.store(false, std::memory_order_release);
  loop_.post([this] { loop_.remove(listener_->fd()); });

  // 2. Drain the ingest queue: the worker finishes every queued job (each
  //    produces a response) and exits; join it while the loop still runs
  //    so those responses can be delivered.
  {
    MutexLock lk(ingest_mu_);
    ingest_stop_ = true;
  }
  ingest_cv_.notify_all();
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  if (ingest_thread_.joinable()) ingest_thread_.join();

  // Test hook: hold the stop sequence here — ingest worker joined, loop
  // thread still serving — so tests can land an INGEST in the window and
  // assert it gets the typed draining reject instead of a silent drop.
  STG_FAILPOINT("net.stop.ingest_window",
                std::this_thread::sleep_for(std::chrono::milliseconds(500)));

  // 3. Wait for in-flight predicts. The server guarantees completion
  //    delivery (fulfil, shed, or drain-reject on its own stop()), so
  //    this converges; the timeout is a watchdog against server bugs,
  //    not an expected path.
  const auto wait_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (inflight_predicts_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < wait_deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (inflight_predicts_.load(std::memory_order_acquire) > 0)
    STG_LOG_WARN << "net: frontend stop() timed out with "
                 << inflight_predicts_.load() << " predicts in flight";

  // 4. Final flush on the loop thread, then stop the loop.
  loop_.post([this] {
    for (auto& [id, conn] : conns_) {
      conn->flush();  // best-effort: whatever the kernel will take now
      loop_.remove(conn->fd());
    }
  });
  loop_.stop();
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  if (loop_thread_.joinable()) loop_thread_.join();

  // 5. Loop is gone — no thread can touch the maps; closing the fds here
  //    (Connection destructors) is single-threaded teardown.
  closed_.fetch_add(conns_.size(), std::memory_order_relaxed);
  conns_.clear();
  listener_.reset();
  STG_LOG_INFO << "net: frontend stopped";
}

uint16_t Frontend::port() const {
  STG_CHECK(listener_ != nullptr, "net: frontend not started");
  return listener_->port();
}

FrontendStats Frontend::stats() const {
  FrontendStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.frames_out = frames_out_.load(std::memory_order_relaxed);
  s.json_lines_in = json_lines_in_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  return s;
}

// ---- loop thread ----------------------------------------------------------

void Frontend::on_accept() {
  while (true) {
    const int cfd = listener_->accept_one();
    if (cfd < 0) return;
    if (!accepting_.load(std::memory_order_acquire)) {
      ::close(cfd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Connection>(cfd, id);
    loop_.add(cfd, EPOLLIN,
              [this, id](uint32_t events) { on_conn_event(id, events); });
    conns_.emplace(id, std::move(conn));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    num_conns_.store(conns_.size(), std::memory_order_release);
  }
}

void Frontend::close_conn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  loop_.remove(it->second->fd());
  conns_.erase(it);  // destructor closes the fd
  closed_.fetch_add(1, std::memory_order_relaxed);
  num_conns_.store(conns_.size(), std::memory_order_release);
}

void Frontend::update_write_interest(Connection& conn) {
  loop_.modify(conn.fd(),
               EPOLLIN | (conn.wants_write() ? EPOLLOUT : 0u));
}

void Frontend::on_conn_event(uint64_t conn_id, uint32_t events) {
  {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if (events & (EPOLLHUP | EPOLLERR)) {
      close_conn(conn_id);
      return;
    }
    if (events & EPOLLOUT) {
      if (conn.flush() == Connection::IoResult::kClosed) {
        close_conn(conn_id);
        return;
      }
      if (!conn.wants_write()) {
        if (conn.close_after_flush()) {
          close_conn(conn_id);
          return;
        }
        update_write_interest(conn);
      }
    }
    if ((events & EPOLLIN) &&
        conn.read_into_decoder() == Connection::IoResult::kClosed) {
      close_conn(conn_id);
      return;
    }
  }

  // Drain every complete message. Re-look-up per iteration: a handler's
  // write path may close the connection (dead peer) mid-drain.
  while (true) {
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    Connection& conn = *it->second;
    if (conn.close_after_flush()) return;  // goodbye pending; stop parsing
    Frame frame;
    std::string line;
    switch (conn.decoder().next(&frame, &line)) {
      case FrameDecoder::Status::kNeedMore:
        return;
      case FrameDecoder::Status::kProtocolError:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        // The stream has lost framing: say why, then hang up.
        send_error(conn, /*request_id=*/0, ErrorCode::kBadRequest,
                   conn.decoder().error());
        {
          auto it2 = conns_.find(conn_id);
          if (it2 != conns_.end()) {
            if (it2->second->wants_write())
              it2->second->set_close_after_flush();
            else
              close_conn(conn_id);
          }
        }
        return;
      case FrameDecoder::Status::kFrame: {
        // Backstop: handlers answer expected errors (NetError, sheds)
        // themselves, but anything that still escapes (bad_alloc on a huge
        // tensor, a server-side invariant) must not unwind the loop thread
        // — that would std::terminate the whole frontend. Answer kInternal
        // and keep serving. Re-look-up the connection: the handler may
        // have closed it before throwing.
        const uint64_t rid = frame.request_id;
        try {
          handle_frame(conn, std::move(frame));
        } catch (const std::exception& e) {
          auto it2 = conns_.find(conn_id);
          if (it2 != conns_.end())
            send_error(*it2->second, rid, ErrorCode::kInternal, e.what());
        }
        break;
      }
      case FrameDecoder::Status::kJsonLine:
        try {
          handle_json_line(conn, line);
        } catch (const std::exception& e) {
          auto it2 = conns_.find(conn_id);
          if (it2 != conns_.end()) {
            Connection& c = *it2->second;
            c.queue_write(to_bytes(
                error_json_line(ErrorCode::kInternal, e.what())));
            frames_out_.fetch_add(1, std::memory_order_relaxed);
            if (c.flush() == Connection::IoResult::kClosed) {
              close_conn(conn_id);
              return;
            }
            update_write_interest(c);
          }
        }
        break;
    }
  }
}

void Frontend::send_frame(Connection& conn, const Frame& frame) {
  const uint64_t conn_id = conn.id();
  conn.queue_write(encode_frame(frame));
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (conn.flush() == Connection::IoResult::kClosed) {
    close_conn(conn_id);
    return;
  }
  update_write_interest(conn);
}

void Frontend::send_error(Connection& conn, uint64_t request_id,
                          ErrorCode code, const std::string& message) {
  Frame f;
  f.verb = Verb::kError;
  f.request_id = request_id;
  f.payload = build_error(code, message);
  send_frame(conn, f);
}

void Frontend::deliver(uint64_t conn_id, std::vector<uint8_t> bytes) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // client vanished; completion dropped
  Connection& conn = *it->second;
  conn.queue_write(bytes);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (conn.flush() == Connection::IoResult::kClosed) {
    close_conn(conn_id);
    return;
  }
  update_write_interest(conn);
}

ErrorCode Frontend::map_exception(const std::exception_ptr& ep,
                                  std::string* message) {
  try {
    std::rethrow_exception(ep);
  } catch (const serve::ShedError& e) {
    *message = e.what();
    // ShedReason and the wire codes 0..3 are the same taxonomy.
    return static_cast<ErrorCode>(static_cast<uint8_t>(e.reason()));
  } catch (const NetError& e) {
    *message = e.what();
    return e.code();
  } catch (const std::exception& e) {
    *message = e.what();
    return ErrorCode::kInternal;
  } catch (...) {
    *message = "unknown server error";
    return ErrorCode::kInternal;
  }
}

void Frontend::submit_predict(Connection& conn, uint64_t request_id,
                              std::vector<uint32_t> nodes, bool as_json) {
  const uint64_t conn_id = conn.id();
  inflight_predicts_.fetch_add(1, std::memory_order_acq_rel);
  // The completion callback runs on whichever server thread finishes the
  // request (a reader, or this loop thread on an admission shed). It
  // encodes the response HERE — off the loop when possible — and posts
  // only the socket write back.
  server_.predict_async(
      std::move(nodes),
      [this, conn_id, request_id, as_json](
          std::exception_ptr ep, serve::PredictResult&& res) {
        std::vector<uint8_t> bytes;
        if (ep) {
          std::string message;
          const ErrorCode code = map_exception(ep, &message);
          if (as_json) {
            bytes = to_bytes(error_json_line(code, message));
          } else {
            Frame f;
            f.verb = Verb::kError;
            f.request_id = request_id;
            f.payload = build_error(code, message);
            bytes = encode_frame(f);
          }
        } else {
          PredictWire wire;
          wire.time = res.timestamp;
          wire.version = res.version;
          wire.stale = res.stale;
          wire.outputs = std::move(res.outputs);
          if (as_json) {
            bytes = to_bytes(predict_json_line(wire));
          } else {
            Frame f;
            f.verb = Verb::kPredictResp;
            f.request_id = request_id;
            f.payload = build_predict_response(wire);
            bytes = encode_frame(f);
          }
        }
        loop_.post([this, conn_id, b = std::move(bytes)]() mutable {
          deliver(conn_id, std::move(b));
          inflight_predicts_.fetch_sub(1, std::memory_order_acq_rel);
        });
      });
}

void Frontend::handle_frame(Connection& conn, Frame&& frame) {
  frames_in_.fetch_add(1, std::memory_order_relaxed);
  switch (frame.verb) {
    case Verb::kPredict: {
      std::vector<uint32_t> nodes;
      try {
        nodes = parse_predict_request(frame.payload);
      } catch (const NetError& e) {
        send_error(conn, frame.request_id, e.code(), e.what());
        return;
      }
      submit_predict(conn, frame.request_id, std::move(nodes),
                     /*as_json=*/false);
      return;
    }
    case Verb::kIngest: {
      PendingIngest job;
      job.conn_id = conn.id();
      job.request_id = frame.request_id;
      try {
        parse_ingest_request(frame.payload, &job.delta, &job.features);
      } catch (const NetError& e) {
        send_error(conn, frame.request_id, e.code(), e.what());
        return;
      }
      bool full = false, draining = false;
      {
        MutexLock lk(ingest_mu_);
        // Once stop() has set ingest_stop_ the worker may already be
        // joined; a push here would be queued forever and silently
        // dropped. Reject with the typed draining error instead.
        if (ingest_stop_)
          draining = true;
        else if (ingest_q_.size() >= cfg_.max_pending_ingests)
          full = true;
        else
          ingest_q_.push_back(std::move(job));
      }
      if (draining) {
        send_error(conn, frame.request_id, ErrorCode::kDraining,
                   "net: frontend draining — ingest rejected");
        return;
      }
      if (full) {
        send_error(conn, frame.request_id, ErrorCode::kQueueFull,
                   "net: ingest queue full (" +
                       std::to_string(cfg_.max_pending_ingests) +
                       " pending) — request shed");
        return;
      }
      ingest_cv_.notify_one();
      return;
    }
    case Verb::kStats: {
      Frame f;
      f.verb = Verb::kStatsResp;
      f.request_id = frame.request_id;
      f.payload = to_bytes(server_.stats().to_json());
      send_frame(conn, f);
      return;
    }
    case Verb::kHealth: {
      const serve::ReadView view = server_.read_view();
      const std::string body =
          std::string("{\"health\": \"") +
          serve::to_string(server_.health()) +
          "\", \"time\": " + std::to_string(view.time) +
          ", \"version\": " + std::to_string(view.version) +
          ", \"num_edges\": " + std::to_string(view.num_edges) + "}";
      Frame f;
      f.verb = Verb::kHealthResp;
      f.request_id = frame.request_id;
      f.payload = to_bytes(body);
      send_frame(conn, f);
      return;
    }
    default:
      send_error(conn, frame.request_id, ErrorCode::kBadRequest,
                 "net: unknown request verb " +
                     std::to_string(static_cast<int>(frame.verb)));
      return;
  }
}

void Frontend::handle_json_line(Connection& conn, const std::string& line) {
  json_lines_in_.fetch_add(1, std::memory_order_relaxed);
  JsonRequest req;
  try {
    req = parse_json_request(line);
  } catch (const NetError& e) {
    // Line framing survives a bad request: answer the error, keep parsing.
    conn.queue_write(to_bytes(error_json_line(e.code(), e.what())));
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    if (conn.flush() == Connection::IoResult::kClosed) {
      close_conn(conn.id());
      return;
    }
    update_write_interest(conn);
    return;
  }
  if (req.op == "predict") {
    submit_predict(conn, /*request_id=*/0, std::move(req.nodes),
                   /*as_json=*/true);
    return;
  }
  std::string body;
  if (req.op == "stats") {
    // StatsReport::to_json() is pretty-printed; fold it onto one line to
    // keep the one-object-per-line contract of the fallback.
    body = server_.stats().to_json();
    for (char& c : body)
      if (c == '\n') c = ' ';
    body += "\n";
  } else {  // health
    const serve::ReadView view = server_.read_view();
    body = std::string("{\"health\": \"") +
           serve::to_string(server_.health()) +
           "\", \"time\": " + std::to_string(view.time) +
           ", \"version\": " + std::to_string(view.version) + "}\n";
  }
  conn.queue_write(to_bytes(body));
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  if (conn.flush() == Connection::IoResult::kClosed) {
    close_conn(conn.id());
    return;
  }
  update_write_interest(conn);
}

// ---- ingest thread --------------------------------------------------------

void Frontend::ingest_loop() {
  while (true) {
    PendingIngest job;
    {
      MutexLock lk(ingest_mu_);
      while (!ingest_stop_ && ingest_q_.empty()) ingest_cv_.wait(lk);
      if (ingest_q_.empty()) return;  // stop requested and fully drained
      job = std::move(ingest_q_.front());
      ingest_q_.pop_front();
    }
    std::vector<uint8_t> bytes;
    try {
      server_.ingest(job.delta, std::move(job.features));
      const serve::ReadView view = server_.read_view();
      IngestWire wire;
      wire.time = view.time;
      wire.version = view.version;
      wire.num_edges = view.num_edges;
      Frame f;
      f.verb = Verb::kIngestResp;
      f.request_id = job.request_id;
      f.payload = build_ingest_response(wire);
      bytes = encode_frame(f);
    } catch (...) {
      std::string message;
      const ErrorCode code = map_exception(std::current_exception(), &message);
      Frame f;
      f.verb = Verb::kError;
      f.request_id = job.request_id;
      f.payload = build_error(code, message);
      bytes = encode_frame(f);
    }
    loop_.post([this, cid = job.conn_id, b = std::move(bytes)]() mutable {
      deliver(cid, std::move(b));
    });
  }
}

}  // namespace stgraph::net
