// Network serving front-end: owns the socket layer (Listener, EventLoop,
// Connections) and dispatches decoded requests into a serve::Server.
//
// Threading model (docs/serving.md "Network front-end"):
//
//   loop thread    accept, read, decode, STATS/HEALTH, all socket writes
//   reader threads the server's replicated readers fulfil PREDICTs; their
//                  completion callbacks ENCODE the response and post() it
//                  back to the loop thread keyed by connection id — no
//                  socket is ever touched off-loop
//   ingest thread  one dedicated writer: INGEST frames queue here so the
//                  exec-lock wait never blocks the event loop
//
// PREDICT is fully asynchronous end to end: the loop thread calls
// Server::predict_async and moves on; a connection can have any number of
// requests in flight and responses stream back in completion order,
// matched by the echoed request id. Connection ids are never reused, so a
// completion that arrives after its client vanished looks up nothing and
// is dropped harmlessly — never delivered to a recycled socket.
//
// Typed failures cross the wire intact: a ShedError becomes a kError
// frame whose code IS the ShedReason (the taxonomy is shared), parse
// failures become kBadRequest, executor faults kInternal.
//
// stop() drains in order: stop accepting, wait for in-flight predicts and
// queued ingests to resolve (the server's own stop()/drain machinery
// guarantees completions arrive), flush what the sockets will take, close
// every fd, join the threads. Tests assert fd-count parity across a
// start/traffic/stop cycle via /proc/self/fd.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.hpp"
#include "net/event_loop.hpp"
#include "net/listener.hpp"
#include "net/protocol.hpp"
#include "runtime/mutex.hpp"
#include "serve/server.hpp"
#include "util/thread_annotations.hpp"

namespace stgraph::net {

struct FrontendConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  ///< 0 = ephemeral; read the bound port from port()
  /// Queued-but-unstarted ingests before INGEST frames are refused with
  /// queue_full (the server's own inflight quota still applies below).
  std::size_t max_pending_ingests = 64;
};

/// Socket-layer counters (the serve-layer taxonomy lives in ServerStats).
struct FrontendStats {
  uint64_t accepted = 0;
  uint64_t closed = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t json_lines_in = 0;
  uint64_t protocol_errors = 0;
};

class Frontend {
 public:
  Frontend(serve::Server& server, FrontendConfig cfg = {});
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Bind, listen and spawn the loop + ingest threads. The server must
  /// already be start()ed (or be started before the first request lands).
  void start();
  /// Drain and shut down (see file header). Idempotent.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  uint16_t port() const;
  FrontendStats stats() const;
  /// Live connection count (loop-thread-maintained, racy reads are fine).
  std::size_t connections() const {
    return num_conns_.load(std::memory_order_acquire);
  }

 private:
  struct PendingIngest {
    uint64_t conn_id = 0;
    uint64_t request_id = 0;
    EdgeDelta delta;
    Tensor features;
  };

  // ---- loop-thread handlers ----------------------------------------------
  void on_accept();
  void on_conn_event(uint64_t conn_id, uint32_t events);
  void handle_frame(Connection& conn, Frame&& frame);
  void handle_json_line(Connection& conn, const std::string& line);
  void send_frame(Connection& conn, const Frame& frame);
  void send_error(Connection& conn, uint64_t request_id, ErrorCode code,
                  const std::string& message);
  /// Post-target: look up the connection by id (it may be gone) and write.
  void deliver(uint64_t conn_id, std::vector<uint8_t> bytes);
  void close_conn(uint64_t conn_id);
  void update_write_interest(Connection& conn);

  void submit_predict(Connection& conn, uint64_t request_id,
                      std::vector<uint32_t> nodes, bool as_json);
  static ErrorCode map_exception(const std::exception_ptr& ep,
                                 std::string* message);

  // ---- ingest thread ------------------------------------------------------
  void ingest_loop();

  serve::Server& server_;
  FrontendConfig cfg_;
  std::unique_ptr<Listener> listener_;
  EventLoop loop_;
  std::thread loop_thread_;
  std::thread ingest_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> accepting_{false};

  // Loop-thread-only state (no lock): connections keyed by id, not fd —
  // ids are never reused, so a posted completion can never hit a recycled
  // socket.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 1;

  std::atomic<std::size_t> num_conns_{0};
  /// Predicts submitted to the server whose completion has not yet been
  /// processed on the loop thread; stop() waits for this to hit zero.
  std::atomic<uint64_t> inflight_predicts_{0};

  Mutex ingest_mu_{"net::Frontend::ingest_mu_"};
  ConditionVariable ingest_cv_;
  std::deque<PendingIngest> ingest_q_ STG_GUARDED_BY(ingest_mu_);
  bool ingest_stop_ STG_GUARDED_BY(ingest_mu_) = false;

  // Counters (atomics: loop thread writes, any thread reads).
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> json_lines_in_{0};
  std::atomic<uint64_t> protocol_errors_{0};
};

}  // namespace stgraph::net
