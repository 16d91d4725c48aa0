// Unit + property tests for the device runtime: thread pool, grid
// launches, scans, sorts, memory tracking.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>

#include "runtime/device_buffer.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scan.hpp"
#include "runtime/sort.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

// Test-local adapter: runs fn(lane) on every lane of `pool` through the
// pool's one launch entry point.
template <typename Fn>
void run_on_lanes(ThreadPool& pool, Fn fn) {
  pool.run_on_lanes_raw(
      [](void* ctx, unsigned lane) { (*static_cast<Fn*>(ctx))(lane); }, &fn);
}

TEST(ThreadPool, RunsEveryLaneExactlyOnce) {
  auto& pool = ThreadPool::instance();
  std::vector<std::atomic<int>> hits(pool.lanes());
  run_on_lanes(pool, [&](unsigned lane) { hits[lane].fetch_add(1); });
  for (unsigned l = 0; l < pool.lanes(); ++l) EXPECT_EQ(hits[l].load(), 1);
}

TEST(ThreadPool, ReentrantLaunchDoesNotDeadlock) {
  auto& pool = ThreadPool::instance();
  std::atomic<int> count{0};
  run_on_lanes(pool, [&](unsigned) {
    run_on_lanes(pool, [&](unsigned) { count.fetch_add(1); });
  });
  EXPECT_GE(count.load(), static_cast<int>(pool.lanes()));
}

TEST(ThreadPool, LanesFromEnvParsesAndClamps) {
  using TP = ThreadPool;
  // Unset or empty: the host's hardware threads, at least one lane.
  EXPECT_EQ(TP::lanes_from_env(nullptr, 4), 4u);
  EXPECT_EQ(TP::lanes_from_env("", 4), 4u);
  EXPECT_EQ(TP::lanes_from_env(nullptr, 0), 1u);
  EXPECT_EQ(TP::lanes_from_env(nullptr, 1000), TP::kMaxLanes);
  // Whole numbers ≥ 1 are taken as given.
  EXPECT_EQ(TP::lanes_from_env("1", 4), 1u);
  EXPECT_EQ(TP::lanes_from_env("8", 4), 8u);
  EXPECT_EQ(TP::lanes_from_env("256", 4), 256u);
  // Above the cap: clamped, with a warning.
  testing::internal::CaptureStderr();
  EXPECT_EQ(TP::lanes_from_env("257", 4), TP::kMaxLanes);
  EXPECT_EQ(TP::lanes_from_env("40000", 4), TP::kMaxLanes);
  EXPECT_EQ(TP::lanes_from_env("99999999999999999999999", 4), TP::kMaxLanes);
  std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("STGRAPH_NUM_THREADS=40000"), std::string::npos) << err;
  // Not a whole number ≥ 1: the unset result, with a warning each.
  for (const char* bad : {"0", "8x", "x8", "-2", "+4", " 4", "4 ", "2.5", "abc"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(TP::lanes_from_env(bad, 3), 3u) << bad;
    err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("STGRAPH_NUM_THREADS"), std::string::npos) << bad;
  }
}

TEST(Parallel, ForCoversAllIndices) {
  // Sizes below, at and well above the lane count: every index is covered
  // exactly once, including when some lanes get an empty range.
  const std::size_t lanes = device::lane_count();
  for (std::size_t n : {std::size_t{1}, lanes, lanes + 1,
                        std::size_t{10001}}) {
    std::vector<std::atomic<int>> hits(n);
    device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    }, 1);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << n;
  }
}

TEST(Parallel, StridedCoversAllIndices) {
  // One tile per row (the aggregation engine's untiled schedule) and a
  // (row × tile) grid whose width is below, equal to and above the lane
  // count, so the per-lane carry wraps rows at odd offsets.
  const std::size_t rows = 5000;
  for (std::size_t tiles : {1, 3, 4, 7}) {
    std::vector<std::atomic<int>> hits(rows * tiles);
    device::parallel_for_strided(rows, tiles, [&](std::size_t r, std::size_t t) {
      ASSERT_LT(t, tiles);
      hits[r * tiles + t].fetch_add(1);
    }, 1);
    for (std::size_t i = 0; i < rows * tiles; ++i)
      EXPECT_EQ(hits[i].load(), 1) << "tiles " << tiles << " item " << i;
  }
}

TEST(Parallel, StridedAssignsRowsRoundRobin) {
  // Lane k takes items k, k+L, k+2L, ...: consecutive items of the
  // row-major grid land on distinct lanes.
  const std::size_t lanes = device::lane_count();
  const std::size_t rows = 4096, tiles = 3;
  std::vector<std::thread::id> owner(rows * tiles);
  device::parallel_for_strided(rows, tiles, [&](std::size_t r, std::size_t t) {
    owner[r * tiles + t] = std::this_thread::get_id();
  }, 1);
  for (std::size_t i = 0; i + lanes < owner.size(); ++i)
    ASSERT_EQ(owner[i], owner[i + lanes]) << i;
}

TEST(Parallel, RangesPartitionWithoutOverlap) {
  const std::size_t n = 77777;
  std::vector<uint8_t> hit(n, 0);
  device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hit[i]++;
  }, 1);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hit[i], 1) << i;
}

TEST(Parallel, ReduceSumMatchesSerial) {
  const std::size_t n = 123457;
  const double got =
      device::parallel_reduce_sum(n, [](std::size_t i) { return double(i); });
  const double want = double(n - 1) * double(n) / 2.0;
  EXPECT_DOUBLE_EQ(got, want);
}

double harmonic(std::size_t n) {
  return device::parallel_reduce_sum(
      n, [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); });
}

TEST(Parallel, ReduceSumSameBitsAtAnyLaneCount) {
  // Inexact terms, so any change in association shows in the last bits:
  // one lane (inline) and the full pool must agree bit for bit, and a
  // single block must be the plain left-to-right sum.
  const std::size_t n = 3 * device::kReduceBlock + 5;
  const double pooled = harmonic(n);
  double inlined = 0.0;
  {
    ThreadPool::ScopedInline one_lane;
    inlined = harmonic(n);
  }
  EXPECT_EQ(std::memcmp(&pooled, &inlined, sizeof(double)), 0)
      << std::hexfloat << pooled << " vs " << inlined;
  double serial = 0.0;
  for (std::size_t i = 0; i < device::kReduceBlock; ++i)
    serial += 1.0 / static_cast<double>(i + 1);
  const double one_block = harmonic(device::kReduceBlock);
  EXPECT_EQ(std::memcmp(&one_block, &serial, sizeof(double)), 0)
      << std::hexfloat << one_block << " vs " << serial;
}

// Nested-use contract (see detail::effective_lanes): a parallel primitive
// launched from a ThreadPool lane — or from a thread under
// ThreadPool::ScopedInline — must run serially inline over its FULL
// range. Before the fix, nested launches sized their chunk grid with
// pool.lanes() but executed only the calling lane's chunk, silently
// dropping (lanes-1)/lanes of the work.
TEST(NestedParallel, InnerForCoversFullRangeFromPoolLane) {
  auto& pool = ThreadPool::instance();
  const std::size_t n = 4096;
  std::vector<std::atomic<uint32_t>> hits(n);
  run_on_lanes(pool, [&](unsigned) {
    device::parallel_for_strided(n, 1, [&](std::size_t i, std::size_t) {
      hits[i].fetch_add(1);
    }, 1);
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(), pool.lanes()) << "index " << i;
}

TEST(NestedParallel, InnerRangesCoverFullRangeFromPoolLane) {
  auto& pool = ThreadPool::instance();
  const std::size_t n = 10001;
  std::vector<std::atomic<uint32_t>> hits(n);
  run_on_lanes(pool, [&](unsigned) {
    device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    }, 1);
  });
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[i].load(), pool.lanes()) << "index " << i;
}

TEST(NestedParallel, LaneCountIsOneOnPoolLane) {
  auto& pool = ThreadPool::instance();
  std::vector<unsigned> seen(pool.lanes(), 0);
  run_on_lanes(pool, [&](unsigned lane) { seen[lane] = device::lane_count(); });
  for (unsigned lane = 0; lane < pool.lanes(); ++lane)
    EXPECT_EQ(seen[lane], 1u) << "lane " << lane;
  EXPECT_EQ(device::lane_count(), pool.lanes());
}

TEST(NestedParallel, NestedReduceSumMatchesSerial) {
  auto& pool = ThreadPool::instance();
  const std::size_t n = 54321;
  const double want = double(n - 1) * double(n) / 2.0;
  std::vector<double> got(pool.lanes(), 0.0);
  run_on_lanes(pool, [&](unsigned lane) {
    got[lane] =
        device::parallel_reduce_sum(n, [](std::size_t i) { return double(i); });
  });
  for (unsigned lane = 0; lane < pool.lanes(); ++lane)
    EXPECT_DOUBLE_EQ(got[lane], want) << "lane " << lane;
}

TEST(NestedParallel, ScopedInlineForcesSerialFullCoverage) {
  // The pipeline worker thread runs under ScopedInline: primitives must
  // behave exactly as on a pool lane (serial, full range) even though the
  // thread is not owned by the pool.
  ThreadPool::ScopedInline guard;
  EXPECT_EQ(device::lane_count(), 1u);
  const std::size_t n = 4096;
  std::vector<uint32_t> hits(n, 0);  // serial: plain ints suffice
  device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  }, 1);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1u) << i;
  const double got =
      device::parallel_reduce_sum(n, [](std::size_t i) { return double(i); });
  EXPECT_DOUBLE_EQ(got, double(n - 1) * double(n) / 2.0);
}

// One call of each primitive counts one launch, whether it runs inline
// or across lanes. The scan counts one launch per pass: one when it runs
// as a single range, two when it splits into ranges.
void expect_launch_counts(bool split_scan) {
  auto& stats = device::KernelStats::instance();
  stats.reset();
  device::parallel_for_ranges(100000, [](std::size_t, std::size_t) {}, 1);
  EXPECT_EQ(stats.launches.load(), 1u);
  device::parallel_for_strided(100000, 1, [](std::size_t, std::size_t) {}, 1);
  EXPECT_EQ(stats.launches.load(), 2u);
  device::parallel_reduce_sum(100000, [](std::size_t) { return 1.0; });
  EXPECT_EQ(stats.launches.load(), 3u);
  device::parallel_reduce_sum(10, [](std::size_t) { return 1.0; });
  EXPECT_EQ(stats.launches.load(), 4u);
  std::vector<uint64_t> buf(100000, 1);
  device::inclusive_scan(buf.data(), buf.data(), buf.size());
  EXPECT_EQ(stats.launches.load(), split_scan ? 6u : 5u);
  EXPECT_EQ(buf.back(), buf.size());
}

TEST(Parallel, KernelStatsCountLaunches) {
  {
    ThreadPool::ScopedInline one_lane;
    expect_launch_counts(/*split_scan=*/false);
  }
  expect_launch_counts(/*split_scan=*/device::lane_count() > 1);
}

class ScanProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanProperty, InclusiveMatchesSerialReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 31 + 1);
  std::vector<uint64_t> in(n);
  for (auto& v : in) v = rng.next_below(1000);
  std::vector<uint64_t> want(n);
  std::partial_sum(in.begin(), in.end(), want.begin());
  std::vector<uint64_t> got(n);
  device::inclusive_scan(in.data(), got.data(), n);
  EXPECT_EQ(got, want);
}

TEST_P(ScanProperty, ExclusiveMatchesSerialReferenceAndAliases) {
  const std::size_t n = GetParam();
  Rng rng(n * 37 + 5);
  std::vector<uint64_t> in(n);
  for (auto& v : in) v = rng.next_below(1000);
  uint64_t total_want = 0;
  std::vector<uint64_t> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = total_want;
    total_want += in[i];
  }
  // Aliased in-place form.
  std::vector<uint64_t> buf = in;
  const uint64_t total = device::exclusive_scan(buf.data(), buf.data(), n);
  EXPECT_EQ(buf, want);
  EXPECT_EQ(total, total_want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanProperty,
                         ::testing::Values(0, 1, 2, 100, 16384, 16385, 100000));

class RadixSortProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RadixSortProperty, MatchesStdSort) {
  const std::size_t n = GetParam();
  Rng rng(n * 41 + 3);
  std::vector<uint64_t> keys(n);
  for (auto& k : keys) k = rng.next_u64() >> (n % 3 == 0 ? 32 : 0);
  auto want = keys;
  std::sort(want.begin(), want.end());
  device::radix_sort(keys);
  EXPECT_EQ(keys, want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RadixSortProperty,
                         ::testing::Values(0, 1, 2, 3, 100, 4096, 65537));

TEST(RadixSortPairs, PayloadFollowsKeysStably) {
  Rng rng(99);
  const std::size_t n = 5000;
  std::vector<uint64_t> keys(n), payload(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.next_below(100);  // many duplicates -> stability matters
    payload[i] = i;
  }
  auto keys_copy = keys;
  device::radix_sort_pairs(keys, payload);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    EXPECT_LE(keys[i], keys[i + 1]);
    if (keys[i] == keys[i + 1]) {
      EXPECT_LT(payload[i], payload[i + 1]);
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(keys[i], keys_copy[payload[i]]);
}

std::vector<uint32_t> degree_order(const std::vector<uint32_t>& deg) {
  std::vector<uint32_t> idx(deg.size());
  device::degree_order(deg.data(), static_cast<uint32_t>(deg.size()),
                       idx.data());
  return idx;
}

TEST(SortIndices, DescendingDegreeOrderStable) {
  EXPECT_EQ(degree_order({3, 1, 4, 1, 5, 9, 2, 6}),
            (std::vector<uint32_t>{5, 7, 4, 2, 0, 6, 1, 3}));
  // All degrees equal: ties break by ascending id, so the identity.
  std::vector<uint32_t> ids(1000);
  std::iota(ids.begin(), ids.end(), 0u);
  EXPECT_EQ(degree_order(std::vector<uint32_t>(1000, 7)), ids);
  // A star center first, then every leaf in id order.
  std::vector<uint32_t> star(500, 1);
  star[321] = 499;
  std::vector<uint32_t> want{321};
  for (uint32_t v = 0; v < 500; ++v)
    if (v != 321) want.push_back(v);
  EXPECT_EQ(degree_order(star), want);
}

TEST(SortIndices, LargeInputSorted) {
  Rng rng(7);
  std::vector<uint32_t> deg(50000);
  for (auto& d : deg) d = static_cast<uint32_t>(rng.next_below(1000));
  const auto idx = degree_order(deg);
  ASSERT_EQ(idx.size(), deg.size());
  std::vector<uint8_t> seen(deg.size(), 0);
  for (uint32_t v : idx) {
    ASSERT_LT(v, deg.size());
    EXPECT_FALSE(seen[v]) << v;
    seen[v] = 1;
  }
  for (std::size_t i = 0; i + 1 < idx.size(); ++i) {
    EXPECT_GE(deg[idx[i]], deg[idx[i + 1]]);
    if (deg[idx[i]] == deg[idx[i + 1]]) {
      EXPECT_LT(idx[i], idx[i + 1]);
    }
  }
}

TEST(MemoryTracker, ChargesAndReleases) {
  auto& mt = MemoryTracker::instance();
  const std::size_t before = mt.current_bytes();
  {
    DeviceBuffer<float> buf(1000, MemCategory::kScratch);
    EXPECT_EQ(mt.current_bytes(), before + 4000);
    EXPECT_GE(mt.peak_bytes(), before + 4000);
  }
  EXPECT_EQ(mt.current_bytes(), before);
}

TEST(MemoryTracker, PeakRegionTracksHighWater) {
  PeakMemoryRegion region;
  const std::size_t base = region.peak();
  {
    DeviceBuffer<uint64_t> a(512, MemCategory::kPma);
    DeviceBuffer<uint64_t> b(512, MemCategory::kPma);
    (void)a;
    (void)b;
  }
  EXPECT_GE(region.peak(), base + 2 * 512 * sizeof(uint64_t));
}

TEST(MemoryTracker, PerCategoryAccounting) {
  auto& mt = MemoryTracker::instance();
  const std::size_t before = mt.current_bytes(MemCategory::kEdgeMessage);
  DeviceBuffer<float> buf(10, MemCategory::kEdgeMessage);
  EXPECT_EQ(mt.current_bytes(MemCategory::kEdgeMessage), before + 40);
}

TEST(DeviceBuffer, MoveTransfersCharge) {
  auto& mt = MemoryTracker::instance();
  const std::size_t before = mt.current_bytes();
  DeviceBuffer<int> a(100, MemCategory::kGraph);
  DeviceBuffer<int> b = std::move(a);
  EXPECT_EQ(mt.current_bytes(), before + 400);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(a.size(), 0u);  // NOLINT: post-move inspection is the test
}

TEST(DeviceBuffer, CloneCopiesContent) {
  DeviceBuffer<int> a(5, MemCategory::kGraph);
  for (int i = 0; i < 5; ++i) a[i] = i * i;
  DeviceBuffer<int> b = a.clone();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(b[i], i * i);
  b[0] = 99;
  EXPECT_EQ(a[0], 0);
}

TEST(DeviceBuffer, HostRoundTrip) {
  std::vector<float> host{1.f, 2.f, 3.f};
  DeviceBuffer<float> buf(host, MemCategory::kTensor);
  EXPECT_EQ(buf.to_host(), host);
}

}  // namespace
}  // namespace stgraph
