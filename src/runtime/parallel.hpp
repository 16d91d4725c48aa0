// Grid-style parallel primitives — the CPU analogue of CUDA kernel
// launches: `parallel_for_ranges` is a 1-D grid of block tiles,
// `parallel_for_strided` a warp-interleaved (row, tile) grid and
// `parallel_reduce_sum` a blocked reduction. `KernelStats` counts launches
// the way the original system counts kernel invocations (used by the
// fusion ablation bench: fewer launches == fused).
//
// These templates are the only code that reaches the workers, through
// ThreadPool::run_on_lanes_raw. The callable stays on the caller's stack
// and is never type-erased into a heap object. Every call counts one
// launch, whether it runs across lanes or inline.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

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

/// Launch `fn(begin, end)` over contiguous index ranges, one per lane —
/// the analogue of a thread-block processing a tile. At or below `grain`
/// elements, or on one lane, `fn(0, n)` runs inline.
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

/// Launch `fn(row, tile)` over the (rows × tiles) grid in row-major item
/// order with ROUND-ROBIN lane assignment: lane k takes items k, k+L,
/// k+2L, ... This emulates GPU warp scheduling — when rows are sorted by
/// descending cost (degree-ordered vertices), striding balances lanes
/// where contiguous blocks would not. With `tiles == 1`, lane k takes rows
/// k, k+L, ... Item coordinates advance incrementally (per-lane start
/// divmod, then a subtractive carry per step), so the grid loop performs
/// no per-item hardware division.
template <typename Fn>
void parallel_for_strided(std::size_t rows, std::size_t tiles, Fn&& fn,
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
    std::size_t rows, tiles;
    unsigned lanes;
  } ctx{fn, rows, tiles, lanes};
  pool.run_on_lanes_raw(
      [](void* c, unsigned lane) {
        auto& x = *static_cast<Ctx*>(c);
        if (x.tiles == 1) {
          for (std::size_t r = lane; r < x.rows; r += x.lanes) x.fn(r, 0);
          return;
        }
        // lanes and tiles are both small, so the carry loop rarely
        // iterates more than a few times.
        std::size_t r = lane / x.tiles;
        std::size_t t = lane % x.tiles;
        while (r < x.rows) {
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

/// Elements per partial sum of parallel_reduce_sum. Fixed, so the
/// association of the sum — and its bits — never depend on the lane count.
inline constexpr std::size_t kReduceBlock = 4096;

/// Sum of fn(i) over [0, n) in double: each kReduceBlock-element block is
/// summed left to right on some lane, then the block partials are added in
/// block order. n ≤ kReduceBlock sums serially, one launch, inline.
template <typename Fn>
double parallel_reduce_sum(std::size_t n, Fn&& fn) {
  if (n == 0) return 0.0;
  const std::size_t blocks = (n + kReduceBlock - 1) / kReduceBlock;
  std::vector<double> partial(blocks);
  parallel_for_ranges(
      blocks,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::size_t end = std::min(n, (b + 1) * kReduceBlock);
          double acc = 0.0;
          for (std::size_t i = b * kReduceBlock; i < end; ++i) acc += fn(i);
          partial[b] = acc;
        }
      },
      /*grain=*/1);
  double total = partial[0];
  for (std::size_t b = 1; b < blocks; ++b) total += partial[b];
  return total;
}

/// Number of parallel lanes available to a launch issued from the current
/// thread. Inside a pool job (nested use) this is 1 — nested launches run
/// serially inline over their full range; sizing per-lane scratch with this
/// value is therefore always consistent with how the launch executes.
unsigned lane_count();

}  // namespace stgraph::device
