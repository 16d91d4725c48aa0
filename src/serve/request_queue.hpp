// Bounded MPMC FIFO request queue for the serving runtime: many client (or
// network) threads push predict requests; N replicated reader threads pop
// them in arrival order, in micro-batches. The bound turns overload into
// explicit load shedding (push() reports kFull, the server sheds the
// request as queue_full) instead of unbounded memory growth.
//
// Completion model: a request resolves through its `done` callback,
// invoked EXACTLY ONCE from whichever thread finishes it (a reader thread
// on fulfilment, the submitting thread on admission shed, the stopping
// thread on drain). The blocking predict() API wraps a promise in the
// callback; the network front-end wraps a frame writer — the queue itself
// never blocks a thread per in-flight request.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/mutex.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_annotations.hpp"

namespace stgraph::serve {

/// What a fulfilled predict request resolves to.
struct PredictResult {
  uint32_t timestamp = 0;   ///< graph time the forward pass ran at
  uint64_t version = 0;     ///< server state version (bumps per ingest/swap)
  bool stale = false;       ///< served from the last-good cached step while
                            ///< the circuit was open (bounded staleness)
  Tensor outputs;           ///< one row per requested node (all nodes if
                            ///< the request listed none)
  double queue_micros = 0;  ///< time spent waiting for the batcher
  double total_micros = 0;  ///< enqueue -> completion delivered
};

/// Exactly-once completion: `ep == nullptr` delivers the result; a
/// non-null `ep` carries the typed failure (ShedError / StgError).
using PredictCallback =
    std::function<void(std::exception_ptr ep, PredictResult&& result)>;

struct PredictRequest {
  std::vector<uint32_t> nodes;  ///< empty = all nodes
  PredictCallback done;
  std::chrono::steady_clock::time_point enqueued;
  /// Absolute deadline; time_point::max() = none. Enforced at dequeue
  /// (expired requests shed without executing) and at completion.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Resolve a request exactly once (no-op on a callback-less request, which
/// only ever exists in unit tests).
inline void complete_request(PredictRequest& req, PredictResult&& res) {
  if (req.done) {
    PredictCallback cb = std::move(req.done);
    req.done = nullptr;
    cb(nullptr, std::move(res));
  }
}
inline void fail_request(PredictRequest& req, const std::exception_ptr& ep) {
  if (req.done) {
    PredictCallback cb = std::move(req.done);
    req.done = nullptr;
    cb(ep, PredictResult{});
  }
}

class RequestQueue {
 public:
  enum class PushResult : uint8_t {
    kOk,
    kFull,    ///< at capacity — load shed (queue_full)
    kClosed,  ///< close()d — server draining (draining)
  };

  explicit RequestQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Request is untouched unless kOk is returned.
  PushResult push(PredictRequest&& req);

  /// Blocks until at least one request is available or the queue is
  /// closed, then takes up to `max_batch` requests in arrival order. An
  /// empty result means closed-and-drained: the reader loop should exit.
  /// Safe for many concurrent poppers (the replicated readers).
  std::vector<PredictRequest> pop_batch(std::size_t max_batch);

  /// Move out everything queued right now without blocking (watchdog
  /// flush, drain-time rejection). Never returns requests to the queue.
  std::vector<PredictRequest> drain_all();

  /// Wakes every popper; subsequent pushes fail, already-queued requests
  /// still drain (readers reject them promptly while draining).
  void close();
  /// Re-arm after close() so the server can be start()ed again.
  void reopen();

  std::size_t depth() const;
  std::size_t max_depth() const;

 private:
  const std::size_t capacity_;
  mutable Mutex mu_{"serve::RequestQueue::mu_"};
  ConditionVariable cv_;
  std::deque<PredictRequest> q_ STG_GUARDED_BY(mu_);
  std::size_t max_depth_ STG_GUARDED_BY(mu_) = 0;
  bool closed_ STG_GUARDED_BY(mu_) = false;
};

}  // namespace stgraph::serve
