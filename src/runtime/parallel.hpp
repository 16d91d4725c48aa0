// Grid-style parallel primitives — the CPU analogue of CUDA kernel
// launches. `parallel_for` plays the role of a 1-D grid launch;
// `KernelStats` counts launches the way the original system counts kernel
// invocations (used by the fusion ablation bench: fewer launches == fused).
//
// Every launch primitive is a template over the callable: it stays on the
// caller's stack and reaches the workers through
// ThreadPool::run_on_lanes_raw, so a launch allocates nothing and
// constructs no std::function.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>

#include "runtime/thread_pool.hpp"

namespace stgraph::device {

/// Global launch statistics (reset per measured region in benches).
struct KernelStats {
  std::atomic<uint64_t> launches{0};
  static KernelStats& instance();
  void reset() { launches = 0; }
};

namespace detail {
inline void count_launch() {
  KernelStats::instance().launches.fetch_add(1, std::memory_order_relaxed);
}

/// Lane count a launch may actually use from the current thread. On a pool
/// lane (i.e. inside another launch) ThreadPool::run_on_lanes_raw executes
/// the job inline on ONE lane only, so grid math sized with the full
/// pool.lanes() would silently drop every chunk but the first. Nested
/// launches therefore see exactly 1 effective lane: they run serially,
/// inline, over their FULL index range. This is the enforced contract for
/// nesting (a kernel launched from inside another launch's body relies on
/// it); see test_runtime NestedParallel* for the regression tests.
inline unsigned effective_lanes(const ThreadPool& pool) {
  return ThreadPool::on_pool_lane() ? 1u : pool.lanes();
}
}  // namespace detail

/// Launch `fn(begin, end)` over contiguous index ranges — the analogue of a
/// thread-block processing a tile. Lower per-element overhead than
/// parallel_for; preferred in kernels. Non-allocating: `fn` stays on the
/// caller's stack.
template <typename Fn>
void parallel_for_ranges(std::size_t n, Fn&& fn, std::size_t grain = 1024) {
  if (n == 0) return;
  detail::count_launch();
  auto& pool = ThreadPool::instance();
  const unsigned lanes = detail::effective_lanes(pool);
  if (lanes == 1 || n <= grain) {
    fn(std::size_t{0}, n);
    return;
  }
  struct Ctx {
    Fn& fn;
    std::size_t n, chunk;
  } ctx{fn, n, (n + lanes - 1) / lanes};
  pool.run_on_lanes_raw(
      [](void* c, unsigned lane) {
        auto& x = *static_cast<Ctx*>(c);
        const std::size_t begin = static_cast<std::size_t>(lane) * x.chunk;
        if (begin >= x.n) return;
        x.fn(begin, std::min(x.n, begin + x.chunk));
      },
      &ctx);
}

/// Launch `fn(i)` for i in [0, n). Static block partitioning across lanes;
/// below `grain` elements the launch runs inline (launch overhead would
/// dominate, mirroring how tiny kernels are not worth a grid launch).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t grain = 1024) {
  parallel_for_ranges(
      n,
      [&fn](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) fn(i);
      },
      grain);
}

/// Launch `fn(i)` for i in [0, n) with ROUND-ROBIN lane assignment (lane k
/// processes k, k+L, k+2L, ...). This emulates GPU warp scheduling: when
/// work items are sorted by descending cost (degree-ordered vertices),
/// striding balances lanes where contiguous blocks would not.
template <typename Fn>
void parallel_for_strided(std::size_t n, Fn&& fn, std::size_t grain = 512) {
  if (n == 0) return;
  detail::count_launch();
  auto& pool = ThreadPool::instance();
  const unsigned lanes = detail::effective_lanes(pool);
  if (lanes == 1 || n <= grain) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  struct Ctx {
    Fn& fn;
    std::size_t n;
    unsigned lanes;
  } ctx{fn, n, lanes};
  pool.run_on_lanes_raw(
      [](void* c, unsigned lane) {
        auto& x = *static_cast<Ctx*>(c);
        for (std::size_t i = lane; i < x.n; i += x.lanes) x.fn(i);
      },
      &ctx);
}

/// Launch `fn(row, tile)` over the (rows × tiles) grid in row-major item
/// order with ROUND-ROBIN lane assignment — the 2-D form of
/// parallel_for_strided. Item coordinates are maintained incrementally
/// (per-lane start divmod, then a subtractive carry per step) so the grid
/// loop performs no per-item hardware division; at large rows × tiles the
/// div/mod pair is measurable against a fused kernel body.
template <typename Fn>
void parallel_for_2d_strided(std::size_t rows, std::size_t tiles, Fn&& fn,
                             std::size_t grain = 512) {
  const std::size_t n = rows * tiles;
  if (n == 0) return;
  detail::count_launch();
  auto& pool = ThreadPool::instance();
  const unsigned lanes = detail::effective_lanes(pool);
  if (lanes == 1 || n <= grain) {
    for (std::size_t r = 0; r < rows; ++r)
      for (std::size_t t = 0; t < tiles; ++t) fn(r, t);
    return;
  }
  struct Ctx {
    Fn& fn;
    std::size_t n, tiles;
    unsigned lanes;
  } ctx{fn, n, tiles, lanes};
  pool.run_on_lanes_raw(
      [](void* c, unsigned lane) {
        auto& x = *static_cast<Ctx*>(c);
        if (lane >= x.n) return;
        // One divmod per lane to find the starting cell, then stride by
        // `lanes` with a carry loop (lanes/tiles are both small, so the
        // while rarely iterates more than a few times).
        std::size_t r = lane / x.tiles;
        std::size_t t = lane % x.tiles;
        for (std::size_t i = lane; i < x.n; i += x.lanes) {
          x.fn(r, t);
          t += x.lanes;
          while (t >= x.tiles) {
            t -= x.tiles;
            ++r;
          }
        }
      },
      &ctx);
}

/// Parallel sum-reduction of fn(i) over [0, n).
double parallel_reduce_sum(std::size_t n,
                           const std::function<double(std::size_t)>& fn,
                           std::size_t grain = 4096);

/// Number of parallel lanes available to a launch issued from the current
/// thread. Inside a pool job (nested use) this is 1 — nested launches run
/// serially inline over their full range; sizing per-lane scratch with this
/// value is therefore always consistent with how the launch executes.
unsigned lane_count();

/// No-op on the CPU substrate (kernels are synchronous) but kept so call
/// sites read like the CUDA original.
inline void synchronize() {}

}  // namespace stgraph::device
