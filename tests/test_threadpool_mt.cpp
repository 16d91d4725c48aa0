// Multi-worker thread-pool tests: these construct pools with explicit
// worker counts (independent of the host's core count and of the
// process-wide singleton) to exercise the synchronization paths — start
// broadcast, completion counting, reentrancy, and repeated launches —
// under real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace stgraph {
namespace {

// Test-local adapter: runs fn(lane) on every lane of `pool` through the
// pool's one launch entry point.
template <typename Fn>
void run_on_lanes(ThreadPool& pool, Fn fn) {
  pool.run_on_lanes_raw(
      [](void* ctx, unsigned lane) { (*static_cast<Fn*>(ctx))(lane); }, &fn);
}

TEST(ThreadPoolMt, AllLanesParticipate) {
  ThreadPool pool(3);  // 4 lanes total
  ASSERT_EQ(pool.lanes(), 4u);
  std::vector<std::atomic<int>> hits(4);
  run_on_lanes(pool, [&](unsigned lane) { hits[lane].fetch_add(1); });
  for (unsigned l = 0; l < 4; ++l) EXPECT_EQ(hits[l].load(), 1) << l;
}

TEST(ThreadPoolMt, DistinctThreadsBackTheLanes) {
  ThreadPool pool(3);
  std::mutex mu;
  std::set<std::thread::id> ids;
  run_on_lanes(pool, [&](unsigned) {
    // Slow the lanes slightly so workers overlap rather than one thread
    // stealing all lanes (not possible here, but keeps the test honest).
    volatile double x = 0;
    for (int i = 0; i < 10000; ++i) x = x + i;
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ThreadPoolMt, ManySequentialLaunchesStayConsistent) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 500; ++round) {
    run_on_lanes(pool, [&](unsigned lane) {
      total.fetch_add(lane + 1, std::memory_order_relaxed);
    });
  }
  // Lanes 0,1,2 → 6 per round.
  EXPECT_EQ(total.load(), 500 * 6);
}

TEST(ThreadPoolMt, ReentrantLaunchRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> outer{0}, inner{0};
  run_on_lanes(pool, [&](unsigned) {
    outer.fetch_add(1);
    run_on_lanes(pool, [&](unsigned inner_lane) {
      // Reentrant call must degrade to inline single-lane execution.
      EXPECT_EQ(inner_lane, 0u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(outer.load(), 3);
  EXPECT_EQ(inner.load(), 3);
}

TEST(ThreadPoolMt, ParallelMutationHasNoLostUpdates) {
  ThreadPool pool(3);
  // Each lane owns a disjoint slice; no torn writes expected.
  std::vector<int> data(4096, 0);
  const std::size_t chunk = data.size() / pool.lanes();
  for (int round = 0; round < 50; ++round) {
    run_on_lanes(pool, [&](unsigned lane) {
      const std::size_t b = lane * chunk;
      const std::size_t e = lane + 1 == pool.lanes() ? data.size() : b + chunk;
      for (std::size_t i = b; i < e; ++i) data[i] += 1;
    });
  }
  for (std::size_t i = 0; i < data.size(); ++i) EXPECT_EQ(data[i], 50) << i;
}

TEST(ThreadPoolMt, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1u);
  int runs = 0;
  run_on_lanes(pool, [&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolMt, DestructionJoinsCleanly) {
  // Construct/destruct repeatedly; TSAN/valgrind would flag leaks or
  // races, and a deadlock would hang the test.
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(2);
    std::atomic<int> n{0};
    run_on_lanes(pool, [&](unsigned) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 3);
  }
}

}  // namespace
}  // namespace stgraph
