#include "runtime/parallel.hpp"

#include <vector>

namespace stgraph::device {

KernelStats& KernelStats::instance() {
  static KernelStats stats;
  return stats;
}

unsigned lane_count() {
  return detail::effective_lanes(ThreadPool::instance());
}

double parallel_reduce_sum(std::size_t n,
                           const std::function<double(std::size_t)>& fn,
                           std::size_t grain) {
  if (n == 0) return 0.0;
  auto& pool = ThreadPool::instance();
  const unsigned lanes = detail::effective_lanes(pool);
  if (lanes == 1 || n <= grain) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += fn(i);
    return acc;
  }
  KernelStats::instance().launches.fetch_add(1, std::memory_order_relaxed);
  std::vector<double> partial(lanes, 0.0);
  const std::size_t chunk = (n + lanes - 1) / lanes;
  pool.run_on_lanes([&](unsigned lane) {
    const std::size_t begin = static_cast<std::size_t>(lane) * chunk;
    if (begin >= n) return;
    const std::size_t end = std::min(n, begin + chunk);
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += fn(i);
    partial[lane] = acc;
  });
  double total = 0.0;
  for (double p : partial) total += p;
  return total;
}

}  // namespace stgraph::device
