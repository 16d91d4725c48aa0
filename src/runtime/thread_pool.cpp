#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "runtime/analyze.hpp"

namespace stgraph {

unsigned ThreadPool::lanes_from_env(const char* value, unsigned hardware) {
  const unsigned fallback = std::clamp(hardware, 1u, kMaxLanes);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (*value < '0' || *value > '9' || *end != '\0' || n == 0) {
    std::fprintf(stderr,
                 "stgraph: ignoring STGRAPH_NUM_THREADS=\"%s\" (want a "
                 "whole number of lanes >= 1); using %u\n",
                 value, fallback);
    return fallback;
  }
  if (n > kMaxLanes) {  // strtoull saturates on overflow
    std::fprintf(stderr,
                 "stgraph: STGRAPH_NUM_THREADS=%s exceeds %u lanes; using %u\n",
                 value, kMaxLanes, kMaxLanes);
    return kMaxLanes;
  }
  return static_cast<unsigned>(n);
}

ThreadPool& ThreadPool::instance() {
  // The caller thread is lane 0, so a pool of L lanes starts L-1 workers.
  static ThreadPool pool(lanes_from_env(std::getenv("STGRAPH_NUM_THREADS"),
                                        std::thread::hardware_concurrency()) -
                         1);
  return pool;
}

ThreadPool::ThreadPool(unsigned workers) {
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_on_lanes_raw(RawJob fn, void* ctx) {
  if (workers_.empty() || in_pool_job_) {
    // Inline / reentrant execution: the caller covers every lane serially.
    // Reentrant launches see a single lane so grid math stays correct.
    fn(ctx, 0);
    return;
  }
  {
    MutexLock lock(mu_);
    job_fn_ = fn;
    job_ctx_ = ctx;
    pending_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();

  in_pool_job_ = true;
  fn(ctx, 0);  // lane 0 = calling thread
  in_pool_job_ = false;

  MutexLock lock(mu_);
  while (pending_ != 0) cv_done_.wait(lock);
  job_fn_ = nullptr;
  job_ctx_ = nullptr;
}

void ThreadPool::worker_loop(unsigned lane) {
  uint64_t seen = 0;
  for (;;) {
    RawJob job = nullptr;
    void* ctx = nullptr;
    {
      MutexLock lock(mu_);
      while (!stop_ && generation_ == seen) cv_start_.wait(lock);
      if (stop_) return;
      seen = generation_;
      job = job_fn_;
      ctx = job_ctx_;
    }
    in_pool_job_ = true;
    job(ctx, lane);
    in_pool_job_ = false;
    {
      MutexLock lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace stgraph
