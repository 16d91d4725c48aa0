// Admission controller in front of the serving runtime's request paths:
// decides, per class (predict vs ingest), whether a request is allowed to
// even join the queue / contend for the execution lock, and sheds it with
// a typed reason when it is not. Shedding at admission is strictly cheaper
// than shedding at dequeue — a doomed request never occupies a queue slot
// or wakes the execution thread.
//
// Two mechanisms:
//   * per-class quotas — predicts are bounded by the request queue's
//     capacity (checked by the queue itself); ingests are bounded by a
//     concurrent-waiter quota so a stalled execution lock cannot pile up
//     unbounded ingestion threads.
//   * queue-delay-based early shedding — the controller keeps an EWMA of
//     observed queue delay (fed by the execution thread at dequeue); a
//     predict whose deadline budget is already smaller than the expected
//     queue delay is shed immediately as deadline_expired rather than
//     being enqueued to expire later.
//
// Everything is atomics; admission never takes a lock.
#pragma once

#include <atomic>
#include <cstdint>

#include "serve/health.hpp"

namespace stgraph::serve {

class AdmissionController {
 public:
  /// `max_inflight_ingests` bounds concurrently admitted ingest calls
  /// (waiters included); 0 disables the quota.
  explicit AdmissionController(std::size_t max_inflight_ingests = 0)
      : max_inflight_ingests_(max_inflight_ingests) {}

  /// Admit a predict with `budget_ns` of deadline budget left (<=0 means
  /// no deadline). Returns the shed reason, or admits when nullopt-like
  /// `admitted` (encoded as kAdmitted below) — we avoid optional to keep
  /// the hot path branch-light.
  enum class Decision : uint8_t { kAdmit, kShed };

  /// Queue-delay-based early shedding: a request whose remaining budget is
  /// below the expected queue delay is declined up front.
  Decision admit_predict(int64_t budget_ns, ShedReason* reason_out) {
    if (budget_ns > 0 &&
        expected_queue_delay_ns() > static_cast<uint64_t>(budget_ns)) {
      *reason_out = ShedReason::kDeadlineExpired;
      return Decision::kShed;
    }
    return Decision::kAdmit;
  }

  /// Per-class quota for ingest: admit unless `max_inflight_ingests` calls
  /// are already inside (or waiting on) the ingest path. Pair every kAdmit
  /// with release_ingest().
  Decision admit_ingest(ShedReason* reason_out) {
    const std::size_t prev =
        inflight_ingests_.fetch_add(1, std::memory_order_acq_rel);
    if (max_inflight_ingests_ != 0 && prev >= max_inflight_ingests_) {
      inflight_ingests_.fetch_sub(1, std::memory_order_acq_rel);
      *reason_out = ShedReason::kQueueFull;
      return Decision::kShed;
    }
    return Decision::kAdmit;
  }
  void release_ingest() {
    inflight_ingests_.fetch_sub(1, std::memory_order_acq_rel);
  }

  /// Fed by the execution thread for every dequeued request: how long it
  /// sat in the queue. EWMA with alpha 1/8 (shift arithmetic, no float
  /// contention).
  void observe_queue_delay(uint64_t delay_ns) {
    uint64_t cur = ewma_queue_delay_ns_.load(std::memory_order_relaxed);
    const uint64_t next = cur - cur / 8 + delay_ns / 8;
    ewma_queue_delay_ns_.store(next, std::memory_order_relaxed);
  }
  uint64_t expected_queue_delay_ns() const {
    return ewma_queue_delay_ns_.load(std::memory_order_relaxed);
  }

  std::size_t inflight_ingests() const {
    return inflight_ingests_.load(std::memory_order_relaxed);
  }

  /// Forget the delay estimate (server restart).
  void reset() {
    ewma_queue_delay_ns_.store(0, std::memory_order_relaxed);
  }

 private:
  const std::size_t max_inflight_ingests_;
  std::atomic<std::size_t> inflight_ingests_{0};
  std::atomic<uint64_t> ewma_queue_delay_ns_{0};
};

}  // namespace stgraph::serve
