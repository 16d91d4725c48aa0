// Persistent worker pool backing all "kernel launches" in the CPU device
// substrate. One pool per process (like one CUDA context); workers park on
// a condition variable between launches.
//
// Thread count comes from STGRAPH_NUM_THREADS if set, otherwise
// hardware_concurrency. With a single hardware thread the pool degrades to
// inline execution (zero workers) so tests remain fast on tiny machines.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "runtime/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stgraph {

class ThreadPool {
 public:
  /// The process-wide pool.
  static ThreadPool& instance();

  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel lanes = workers + the calling thread.
  unsigned lanes() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// True on a thread currently executing inside a pool launch (any lane,
  /// including lane 0 on the launching thread). Nested launches from such a
  /// thread run inline on one lane only, so grid math (chunk sizing, stride
  /// counts) MUST use an effective lane count of 1 — see
  /// device::lane_count() and the parallel_for* primitives, which all check
  /// this flag. Using lanes() directly for chunk sizing inside a pool job
  /// silently drops work.
  static bool on_pool_lane() { return in_pool_job_; }

  /// Marks the current thread as a pool lane for the guard's lifetime, so
  /// every parallel_for* it issues runs serially inline (1 effective lane)
  /// and never touches the pool's launch protocol. run_on_lanes_raw is a
  /// single-launcher protocol (generation_/pending_ handshake): two threads
  /// launching concurrently corrupt the rendezvous. Auxiliary threads that
  /// must run pool-using code concurrently with the main thread (the GPMA
  /// pipeline prefetch worker) wrap their work in a ScopedInline instead.
  class ScopedInline {
   public:
    ScopedInline() : prev_(in_pool_job_) { in_pool_job_ = true; }
    ~ScopedInline() { in_pool_job_ = prev_; }
    ScopedInline(const ScopedInline&) = delete;
    ScopedInline& operator=(const ScopedInline&) = delete;

   private:
    bool prev_;
  };

  /// Run fn(lane) on every lane (0..lanes-1) and wait for completion.
  /// The calling thread executes lane 0. Reentrant calls (fn itself calling
  /// run_on_lanes) execute inline on the calling lane to avoid deadlock.
  void run_on_lanes(const std::function<void(unsigned)>& fn);

  /// Type-erased launch used by the non-allocating templated parallel
  /// primitives: `fn(ctx, lane)` runs on every lane with `ctx` pointing at
  /// a caller-owned callable, so no std::function is constructed per
  /// launch. Same inline/reentrant semantics as run_on_lanes.
  using RawJob = void (*)(void* ctx, unsigned lane);
  void run_on_lanes_raw(RawJob fn, void* ctx);

 private:
  void worker_loop(unsigned lane);

  std::vector<std::thread> workers_;
  Mutex mu_{"runtime::ThreadPool::mu_"};
  ConditionVariable cv_start_;
  ConditionVariable cv_done_;
  RawJob job_fn_ STG_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ STG_GUARDED_BY(mu_) = nullptr;
  uint64_t generation_ STG_GUARDED_BY(mu_) = 0;
  unsigned pending_ STG_GUARDED_BY(mu_) = 0;
  bool stop_ STG_GUARDED_BY(mu_) = false;
  // Defined here, constant-initialized, so the inline code above
  // (ScopedInline, on_pool_lane) never reaches it through another
  // translation unit's out-of-line thread_local definition.
  static inline thread_local bool in_pool_job_ = false;
};

}  // namespace stgraph
