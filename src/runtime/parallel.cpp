#include "runtime/parallel.hpp"

namespace stgraph::device {

KernelStats& KernelStats::instance() {
  static KernelStats stats;
  return stats;
}

unsigned lane_count() {
  return detail::effective_lanes(ThreadPool::instance());
}

}  // namespace stgraph::device
