// Packed Memory Array — the storage engine behind GPMAGraph (paper §V-D,
// after Sha et al., "Accelerating Dynamic Graph Analytics on GPUs",
// VLDB'17).
//
// Keys are 64-bit edge keys (src << 32 | dst) kept sorted in an array with
// deliberate gaps ("SPACE" slots). The array is divided into leaf segments
// of Θ(log capacity) slots; a segment tree of density thresholds governs
// when a batch of insertions/deletions triggers a window rebalance
// (redistribute the window's live keys evenly) or a capacity change.
// Batches are routed to leaves with a prefix-max fence array, mirroring the
// GPU algorithm's per-leaf partitioning step.
//
// The PMA stores only keys; GPMAGraph layers edge labels, degree arrays and
// CSR views on top (they are rebuilt by a single O(capacity) pass over the
// slot array, which is also where the paper's edge relabelling happens).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/device_buffer.hpp"

namespace stgraph {

class Pma {
 public:
  static constexpr uint64_t kEmptyKey = ~0ULL;

  Pma();
  Pma(Pma&&) = default;
  Pma& operator=(Pma&&) = default;
  Pma(const Pma&) = delete;
  Pma& operator=(const Pma&) = delete;
  /// Deep copy, including slack structure (used by the Algorithm-2 cache).
  Pma clone() const;

  /// Number of live keys.
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::size_t segment_size() const { return seg_size_; }
  /// Device bytes held by the slot array.
  std::size_t device_bytes() const { return slots_.bytes(); }

  /// Insert a batch of keys (unsorted ok; duplicates of existing keys are
  /// ignored). Returns the number of keys actually inserted.
  std::size_t insert_batch(std::vector<uint64_t> keys);

  /// Delete a batch of keys (absent keys ignored). Returns the number of
  /// keys actually removed.
  std::size_t erase_batch(std::vector<uint64_t> keys);

  bool contains(uint64_t key) const;

  /// Index of the first slot whose live key is >= `key`; capacity() if all
  /// live keys are smaller. Suitable for building row offsets over the
  /// gapped array.
  std::size_t lower_bound_slot(uint64_t key) const;

  /// Raw gapped slot array (kEmptyKey marks SPACE).
  const DeviceBuffer<uint64_t>& slots() const { return slots_; }

  /// Per-leaf live-key counts (audited by verify::check_pma).
  const std::vector<uint32_t>& leaf_counts() const { return leaf_count_; }

  /// Live keys in sorted order (O(capacity); tests and global rebuilds).
  std::vector<uint64_t> extract_sorted() const;

  /// Validate all structural invariants; on failure returns false and
  /// explains in `why`. Checked invariants: live keys sorted and unique
  /// across the array, size() matches the live count, per-window densities
  /// within bounds (after the slack applied at construction).
  bool check_invariants(std::string* why = nullptr) const;

  /// Statistics for benches.
  uint64_t rebalance_count() const { return rebalances_; }
  uint64_t resize_count() const { return resizes_; }

 private:
  std::size_t num_leaves() const { return capacity() / seg_size_; }
  std::size_t tree_height() const;
  double upper_density(std::size_t height) const;
  double lower_density(std::size_t height) const;

  /// Leaf index a key routes to (via the prefix-max fences).
  std::size_t route_leaf(uint64_t key) const;

  /// Redistribute `keys` evenly across slots [begin, end).
  void redistribute(const std::vector<uint64_t>& keys, std::size_t begin,
                    std::size_t end);

  /// Collect live keys in slots [begin, end), sorted.
  std::vector<uint64_t> collect(std::size_t begin, std::size_t end) const;

  /// Rebuild fences + per-leaf live counts (full pass).
  void rebuild_metadata();
  /// Incremental metadata refresh for a window of leaves, with rightward
  /// fence propagation. Fences may be left stale-high after deletions,
  /// which is safe: routing then lands at or before the true leaf and the
  /// forward scan recovers.
  void refresh_metadata(std::size_t first_leaf, std::size_t leaf_span);

  /// Grow/shrink to `new_capacity` and redistribute `keys` globally.
  void rebuild_with_capacity(std::vector<uint64_t> keys,
                             std::size_t new_capacity);

  static std::size_t segment_size_for(std::size_t capacity);

  DeviceBuffer<uint64_t> slots_;
  std::size_t size_ = 0;
  std::size_t seg_size_ = 8;
  std::vector<uint32_t> leaf_count_;   // live keys per leaf
  std::vector<uint64_t> leaf_fence_;   // prefix max of live keys per leaf
  uint64_t rebalances_ = 0;
  uint64_t resizes_ = 0;
};

/// Pack/unpack edge keys.
inline uint64_t make_edge_key(uint32_t src, uint32_t dst) {
  return (static_cast<uint64_t>(src) << 32) | dst;
}
inline uint32_t edge_key_src(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
inline uint32_t edge_key_dst(uint64_t key) {
  return static_cast<uint32_t>(key & 0xFFFFFFFFu);
}

}  // namespace stgraph
