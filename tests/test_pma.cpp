// Packed Memory Array tests: structural invariants under randomized batch
// workloads (TEST_P property sweeps), ordering, lower_bound semantics,
// growth/shrink behaviour, the CSR bulk load.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gpma/pma.hpp"
#include "runtime/memory_tracker.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

void expect_valid(const Pma& pma) {
  std::string why;
  EXPECT_TRUE(pma.check_invariants(&why)) << why;
}

TEST(Pma, StartsEmptyAndValid) {
  Pma pma;
  EXPECT_EQ(pma.size(), 0u);
  EXPECT_GE(pma.capacity(), 64u);
  expect_valid(pma);
  EXPECT_FALSE(pma.contains(42));
  EXPECT_EQ(pma.lower_bound_slot(0), pma.capacity());
}

TEST(Pma, SingleBatchInsertSortedExtraction) {
  Pma pma;
  EXPECT_EQ(pma.insert_batch({5, 3, 9, 1, 7}), 5u);
  expect_valid(pma);
  EXPECT_EQ(pma.extract_sorted(), (std::vector<uint64_t>{1, 3, 5, 7, 9}));
  for (uint64_t k : {1, 3, 5, 7, 9}) EXPECT_TRUE(pma.contains(k));
  EXPECT_FALSE(pma.contains(4));
}

TEST(Pma, DuplicateInsertIsNoop) {
  Pma pma;
  pma.insert_batch({1, 2, 3});
  EXPECT_EQ(pma.insert_batch({2, 3, 4}), 1u);  // only 4 is new
  EXPECT_EQ(pma.size(), 4u);
  EXPECT_EQ(pma.insert_batch({1, 1, 1}), 0u);  // batch-internal dups too
  expect_valid(pma);
}

TEST(Pma, EraseRemovesAndIgnoresMissing) {
  Pma pma;
  pma.insert_batch({10, 20, 30, 40});
  EXPECT_EQ(pma.erase_batch({20, 99}), 1u);
  EXPECT_EQ(pma.size(), 3u);
  EXPECT_FALSE(pma.contains(20));
  EXPECT_TRUE(pma.contains(30));
  expect_valid(pma);
}

TEST(Pma, GrowsUnderLoad) {
  Pma pma;
  const std::size_t initial_cap = pma.capacity();
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 10000; ++i) keys.push_back(i * 7 + 1);
  pma.insert_batch(keys);
  EXPECT_EQ(pma.size(), keys.size());
  EXPECT_GT(pma.capacity(), initial_cap);
  EXPECT_GE(pma.resize_count(), 1u);
  expect_valid(pma);
  // Order preserved across the growth.
  auto sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(pma.extract_sorted(), sorted);
}

TEST(Pma, ShrinksAfterMassDeletion) {
  Pma pma;
  std::vector<uint64_t> keys;
  for (uint64_t i = 0; i < 20000; ++i) keys.push_back(i);
  pma.insert_batch(keys);
  const std::size_t big_cap = pma.capacity();
  std::vector<uint64_t> to_erase(keys.begin(), keys.begin() + 19900);
  pma.erase_batch(to_erase);
  EXPECT_EQ(pma.size(), 100u);
  EXPECT_LT(pma.capacity(), big_cap);
  expect_valid(pma);
}

TEST(Pma, LowerBoundSlotSemantics) {
  Pma pma;
  pma.insert_batch({10, 20, 30});
  const auto& slots = pma.slots();
  // lower_bound(15) → slot holding 20.
  EXPECT_EQ(slots[pma.lower_bound_slot(15)], 20u);
  EXPECT_EQ(slots[pma.lower_bound_slot(20)], 20u);
  EXPECT_EQ(slots[pma.lower_bound_slot(0)], 10u);
  EXPECT_EQ(pma.lower_bound_slot(31), pma.capacity());
}

// CSR over `rows` sources with `per_row` destinations each, every
// destination `stride` apart from `first`, and its sorted edge keys.
struct TestCsr {
  std::vector<uint32_t> row_offset, dst;
  std::vector<uint64_t> keys;
};
TestCsr make_csr(uint32_t rows, uint32_t per_row, uint32_t first,
                 uint32_t stride) {
  TestCsr c;
  c.row_offset.push_back(0);
  for (uint32_t s = 0; s < rows; ++s) {
    for (uint32_t i = 0; i < per_row; ++i) {
      c.dst.push_back(first + i * stride);
      c.keys.push_back(make_edge_key(s, first + i * stride));
    }
    c.row_offset.push_back(static_cast<uint32_t>(c.dst.size()));
  }
  return c;
}

TEST(Pma, BulkLoadRewritesInPlaceWhenKeysFit) {
  Pma pma;
  pma.insert_batch(make_csr(40, 10, 0, 3).keys);
  const std::size_t cap = pma.capacity();
  ASSERT_EQ(pma.size(), 400u);

  // A different edge set of the same size fits the current capacity: the
  // slot array is rewritten without any allocation.
  const TestCsr next = make_csr(40, 10, 1, 3);
  const uint64_t allocs = MemoryTracker::instance().allocation_count();
  pma.load_csr(40, next.row_offset.data(), next.dst.data());
  EXPECT_EQ(MemoryTracker::instance().allocation_count(), allocs);
  EXPECT_EQ(pma.capacity(), cap);
  expect_valid(pma);
  EXPECT_EQ(pma.extract_sorted(), next.keys);
  EXPECT_TRUE(pma.contains(make_edge_key(3, 4)));
  EXPECT_FALSE(pma.contains(make_edge_key(3, 3)));

  // Batches keep working on the loaded layout.
  EXPECT_EQ(pma.insert_batch({make_edge_key(3, 3)}), 1u);
  EXPECT_EQ(pma.erase_batch({make_edge_key(3, 4)}), 1u);
  expect_valid(pma);
}

TEST(Pma, BulkLoadResizesWhenKeysDoNotFit) {
  Pma pma;
  pma.insert_batch(make_csr(4, 10, 0, 1).keys);
  const TestCsr big = make_csr(100, 20, 0, 2);
  pma.load_csr(100, big.row_offset.data(), big.dst.data());
  expect_valid(pma);
  EXPECT_EQ(pma.extract_sorted(), big.keys);
  EXPECT_LE(static_cast<double>(pma.size()), 0.7 * pma.capacity());

  const std::size_t big_cap = pma.capacity();
  const TestCsr small = make_csr(5, 2, 7, 1);
  pma.load_csr(5, small.row_offset.data(), small.dst.data());
  expect_valid(pma);
  EXPECT_EQ(pma.extract_sorted(), small.keys);
  EXPECT_LT(pma.capacity(), big_cap);

  const TestCsr empty = make_csr(3, 0, 0, 1);
  pma.load_csr(3, empty.row_offset.data(), empty.dst.data());
  expect_valid(pma);
  EXPECT_EQ(pma.size(), 0u);
  EXPECT_EQ(pma.lower_bound_slot(0), pma.capacity());
}

struct WorkloadParams {
  uint64_t seed;
  std::size_t batches;
  std::size_t batch_size;
  double delete_fraction;
};

class PmaWorkload : public ::testing::TestWithParam<WorkloadParams> {};

TEST_P(PmaWorkload, InvariantsHoldUnderRandomBatches) {
  const auto p = GetParam();
  Rng rng(p.seed);
  Pma pma;
  std::set<uint64_t> reference;

  for (std::size_t b = 0; b < p.batches; ++b) {
    // Mixed batch: deletes drawn from keys present BEFORE the batch (the
    // erase runs first, so same-batch inserts must not be delete targets),
    // inserts of fresh keys.
    std::set<uint64_t> present_before = reference;
    std::vector<uint64_t> inserts, deletes;
    for (std::size_t i = 0; i < p.batch_size; ++i) {
      if (!present_before.empty() && rng.bernoulli(p.delete_fraction)) {
        auto it = present_before.begin();
        std::advance(it, rng.next_below(
                             std::min<std::size_t>(present_before.size(), 50)));
        deletes.push_back(*it);
        reference.erase(*it);
        present_before.erase(it);
      } else {
        const uint64_t k = rng.next_below(1u << 20);
        if (reference.insert(k).second && !present_before.count(k))
          inserts.push_back(k);
      }
    }
    pma.erase_batch(deletes);
    pma.insert_batch(inserts);

    std::string why;
    ASSERT_TRUE(pma.check_invariants(&why)) << "batch " << b << ": " << why;
    ASSERT_EQ(pma.size(), reference.size()) << "batch " << b;
  }
  // Full content equality at the end.
  std::vector<uint64_t> want(reference.begin(), reference.end());
  EXPECT_EQ(pma.extract_sorted(), want);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, PmaWorkload,
    ::testing::Values(WorkloadParams{1, 30, 50, 0.0},    // insert-only
                      WorkloadParams{2, 30, 50, 0.3},    // mixed
                      WorkloadParams{3, 50, 20, 0.5},    // delete-heavy
                      WorkloadParams{4, 10, 500, 0.2},   // large batches
                      WorkloadParams{5, 100, 5, 0.4}));  // many tiny batches

TEST(Pma, SequentialAndReverseSequentialInserts) {
  // Adversarial patterns for PMA rebalancing: monotone fronts.
  for (bool reverse : {false, true}) {
    Pma pma;
    for (int b = 0; b < 50; ++b) {
      std::vector<uint64_t> batch;
      for (int i = 0; i < 40; ++i) {
        const uint64_t v = static_cast<uint64_t>(b * 40 + i + 1);
        batch.push_back(reverse ? 1000000 - v : v);
      }
      pma.insert_batch(batch);
      std::string why;
      ASSERT_TRUE(pma.check_invariants(&why)) << why;
    }
    EXPECT_EQ(pma.size(), 2000u);
  }
}

TEST(Pma, EdgeKeyPackingRoundTrip) {
  const uint64_t k = make_edge_key(0xABCD, 0x1234);
  EXPECT_EQ(edge_key_src(k), 0xABCDu);
  EXPECT_EQ(edge_key_dst(k), 0x1234u);
  // Ordering: keys sort by (src, dst).
  EXPECT_LT(make_edge_key(1, 99999), make_edge_key(2, 0));
}

}  // namespace
}  // namespace stgraph
