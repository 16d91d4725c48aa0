#include "verify/validate.hpp"

#include <atomic>

#include "util/check.hpp"
#include "util/env.hpp"

namespace stgraph::verify {
namespace {

std::atomic<int>& flag() {
  // -1 = unread, 0 = off, 1 = on. Atomic so serving threads and tests can
  // race the first read safely.
  static std::atomic<int> f{-1};
  return f;
}

}  // namespace

bool validation_enabled() {
  int v = flag().load(std::memory_order_relaxed);
  if (v < 0) {
    v = env_flag("STGRAPH_VALIDATE", false) ? 1 : 0;
    flag().store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_validation_enabled(bool on) {
  flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

void require_ok(const Report& r, const std::string& where) {
  if (r.ok()) return;
  throw StgError("invariant validation failed in " + where + ": " +
                 r.to_string());
}

}  // namespace stgraph::verify
