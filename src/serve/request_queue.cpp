#include "serve/request_queue.hpp"

#include <algorithm>
#include <iterator>

namespace stgraph::serve {

RequestQueue::PushResult RequestQueue::push(PredictRequest&& req) {
  {
    MutexLock lk(mu_);
    if (closed_) return PushResult::kClosed;
    if (q_.size() >= capacity_) return PushResult::kFull;
    q_.push_back(std::move(req));
    max_depth_ = std::max(max_depth_, q_.size());
  }
  cv_.notify_one();
  return PushResult::kOk;
}

std::vector<PredictRequest> RequestQueue::pop_batch(std::size_t max_batch) {
  MutexLock lk(mu_);
  while (!closed_ && q_.empty()) cv_.wait(lk);
  const std::size_t take = std::min(max_batch, q_.size());
  std::vector<PredictRequest> batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  // More work left and other readers may be parked: pass the baton.
  if (!q_.empty()) cv_.notify_one();
  return batch;
}

std::vector<PredictRequest> RequestQueue::drain_all() {
  MutexLock lk(mu_);
  std::vector<PredictRequest> all(std::make_move_iterator(q_.begin()),
                                  std::make_move_iterator(q_.end()));
  q_.clear();
  return all;
}

void RequestQueue::close() {
  {
    MutexLock lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

void RequestQueue::reopen() {
  MutexLock lk(mu_);
  closed_ = false;
}

std::size_t RequestQueue::depth() const {
  MutexLock lk(mu_);
  return q_.size();
}

std::size_t RequestQueue::max_depth() const {
  MutexLock lk(mu_);
  return max_depth_;
}

}  // namespace stgraph::serve
