#include "gpma/pma.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "runtime/sort.hpp"
#include "util/check.hpp"

namespace stgraph {
namespace {
constexpr std::size_t kMinCapacity = 64;
constexpr double kTauLeaf = 0.90;   // max leaf density
constexpr double kTauRoot = 0.70;   // max root density
constexpr double kRhoLeaf = 0.05;   // min leaf density
constexpr double kRhoRoot = 0.30;   // min root density
}  // namespace

Pma::Pma()
    : slots_(kMinCapacity, kEmptyKey, MemCategory::kPma),
      seg_size_(segment_size_for(kMinCapacity)) {
  rebuild_metadata();
}

Pma Pma::clone() const {
  Pma out;
  out.slots_ = slots_.clone();
  out.size_ = size_;
  out.seg_size_ = seg_size_;
  out.leaf_count_ = leaf_count_;
  out.leaf_fence_ = leaf_fence_;
  out.rebalances_ = rebalances_;
  out.resizes_ = resizes_;
  return out;
}

std::size_t Pma::segment_size_for(std::size_t capacity) {
  // Θ(log capacity), rounded up to a power of two that divides capacity.
  const auto log2c = static_cast<std::size_t>(std::bit_width(capacity) - 1);
  std::size_t s = std::bit_ceil(std::max<std::size_t>(8, log2c));
  while (capacity % s != 0) s /= 2;
  return s;
}

std::size_t Pma::tree_height() const {
  const std::size_t leaves = num_leaves();
  return static_cast<std::size_t>(std::bit_width(leaves) - 1);
}

double Pma::upper_density(std::size_t height) const {
  const std::size_t h = tree_height();
  if (h == 0) return kTauRoot;
  return kTauLeaf -
         (kTauLeaf - kTauRoot) * static_cast<double>(height) /
             static_cast<double>(h);
}

double Pma::lower_density(std::size_t height) const {
  const std::size_t h = tree_height();
  if (h == 0) return kRhoRoot;
  return kRhoLeaf +
         (kRhoRoot - kRhoLeaf) * static_cast<double>(height) /
             static_cast<double>(h);
}

std::size_t Pma::route_leaf(uint64_t key) const {
  // First leaf whose prefix-max fence is >= key; such a leaf necessarily
  // holds live keys bounding `key` from above. Past-the-fences keys route
  // to the last leaf.
  auto it = std::lower_bound(leaf_fence_.begin(), leaf_fence_.end(), key);
  if (it == leaf_fence_.end()) return num_leaves() - 1;
  return static_cast<std::size_t>(it - leaf_fence_.begin());
}

std::vector<uint64_t> Pma::collect(std::size_t begin, std::size_t end) const {
  std::vector<uint64_t> keys;
  for (std::size_t i = begin; i < end; ++i) {
    if (slots_[i] != kEmptyKey) keys.push_back(slots_[i]);
  }
  return keys;
}

void Pma::redistribute(const std::vector<uint64_t>& keys, std::size_t begin,
                       std::size_t end) {
  const std::size_t window = end - begin;
  STG_CHECK(keys.size() <= window, "redistribute overflow: ", keys.size(),
            " keys into ", window, " slots");
  for (std::size_t i = begin; i < end; ++i) slots_[i] = kEmptyKey;
  const std::size_t k = keys.size();
  for (std::size_t j = 0; j < k; ++j) {
    // Even spread: strictly increasing because k <= window.
    const std::size_t pos = begin + j * window / k;
    slots_[pos] = keys[j];
  }
  ++rebalances_;
}

void Pma::rebuild_metadata() {
  const std::size_t leaves = num_leaves();
  leaf_count_.assign(leaves, 0);
  leaf_fence_.assign(leaves, 0);
  uint64_t fence = 0;
  for (std::size_t l = 0; l < leaves; ++l) {
    uint32_t count = 0;
    for (std::size_t i = l * seg_size_; i < (l + 1) * seg_size_; ++i) {
      if (slots_[i] != kEmptyKey) {
        ++count;
        fence = slots_[i];
      }
    }
    leaf_count_[l] = count;
    leaf_fence_[l] = fence;
  }
}

void Pma::refresh_metadata(std::size_t first_leaf, std::size_t leaf_span) {
  // Incremental variant: recompute counts/fences for the touched window
  // only, then propagate the prefix-max fence rightwards until it
  // stabilizes. O(window + propagation) instead of O(capacity).
  const std::size_t leaves = num_leaves();
  uint64_t fence = first_leaf > 0 ? leaf_fence_[first_leaf - 1] : 0;
  std::size_t l = first_leaf;
  for (; l < std::min(first_leaf + leaf_span, leaves); ++l) {
    uint32_t count = 0;
    for (std::size_t i = l * seg_size_; i < (l + 1) * seg_size_; ++i) {
      if (slots_[i] != kEmptyKey) {
        ++count;
        fence = slots_[i];
      }
    }
    leaf_count_[l] = count;
    leaf_fence_[l] = fence;
  }
  // Propagate the (possibly grown) fence: leaf_fence_ is a prefix max, so
  // raise entries until one already dominates (they are non-decreasing).
  for (; l < leaves && leaf_fence_[l] < fence; ++l) leaf_fence_[l] = fence;
}

void Pma::rebuild_with_capacity(std::vector<uint64_t> keys,
                                std::size_t new_capacity) {
  slots_ = DeviceBuffer<uint64_t>(new_capacity, kEmptyKey, MemCategory::kPma);
  seg_size_ = segment_size_for(new_capacity);
  redistribute(keys, 0, new_capacity);
  size_ = keys.size();
  rebuild_metadata();
  ++resizes_;
}

std::size_t Pma::insert_batch(std::vector<uint64_t> keys) {
  if (keys.empty()) return 0;
  device::radix_sort(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  // Drop keys already present.
  keys.erase(std::remove_if(keys.begin(), keys.end(),
                            [this](uint64_t k) { return contains(k); }),
             keys.end());
  if (keys.empty()) return 0;
  const std::size_t inserted = keys.size();

  // Global overflow check first: grow so the whole batch fits at root
  // density (the GPU algorithm's "resize" path).
  if (static_cast<double>(size_ + inserted) >
      upper_density(tree_height()) * static_cast<double>(capacity())) {
    std::vector<uint64_t> all = extract_sorted();
    std::vector<uint64_t> merged(all.size() + keys.size());
    std::merge(all.begin(), all.end(), keys.begin(), keys.end(),
               merged.begin());
    std::size_t cap = capacity();
    while (static_cast<double>(merged.size()) >
           kTauRoot * static_cast<double>(cap)) {
      cap *= 2;
    }
    rebuild_with_capacity(std::move(merged), cap);
    return inserted;
  }

  // Route the sorted batch to leaves (contiguous runs per leaf).
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::size_t leaf = route_leaf(keys[i]);
    std::size_t j = i + 1;
    while (j < keys.size() && route_leaf(keys[j]) == leaf) ++j;
    const std::size_t pending = j - i;

    // Find the smallest window (leaf, parent, ...) whose density after the
    // merge stays within bounds.
    std::size_t height = 0;
    std::size_t win_leaves = 1;
    std::size_t first_leaf = leaf;
    for (;;) {
      std::size_t live = 0;
      for (std::size_t l = first_leaf; l < first_leaf + win_leaves; ++l)
        live += leaf_count_[l];
      const std::size_t win_slots = win_leaves * seg_size_;
      if (static_cast<double>(live + pending) <=
          upper_density(height) * static_cast<double>(win_slots)) {
        // Merge window live keys with the pending run and redistribute.
        std::vector<uint64_t> live_keys =
            collect(first_leaf * seg_size_, (first_leaf + win_leaves) * seg_size_);
        std::vector<uint64_t> merged(live_keys.size() + pending);
        std::merge(live_keys.begin(), live_keys.end(), keys.begin() + i,
                   keys.begin() + j, merged.begin());
        redistribute(merged, first_leaf * seg_size_,
                     (first_leaf + win_leaves) * seg_size_);
        size_ += pending;
        refresh_metadata(first_leaf, win_leaves);
        break;
      }
      STG_CHECK(win_leaves < num_leaves(),
                "root window overflow should have been handled by resize");
      ++height;
      win_leaves *= 2;
      first_leaf = (first_leaf / win_leaves) * win_leaves;
    }
    i = j;
  }
  return inserted;
}

std::size_t Pma::erase_batch(std::vector<uint64_t> keys) {
  if (keys.empty()) return 0;
  device::radix_sort(keys);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::size_t removed = 0;

  // Phase 1: blank matching slots in place (order is preserved). Fences
  // are left stale-high, which routing tolerates; counts are maintained
  // incrementally.
  for (uint64_t key : keys) {
    const std::size_t pos = lower_bound_slot(key);
    if (pos < capacity() && slots_[pos] == key) {
      slots_[pos] = kEmptyKey;
      --size_;
      ++removed;
      const std::size_t leaf = pos / seg_size_;
      STG_DCHECK(leaf_count_[leaf] > 0, "leaf count underflow");
      --leaf_count_[leaf];
    }
  }
  if (removed == 0) return 0;

  // Phase 2: fix density violations bottom-up; shrink at root underflow.
  if (static_cast<double>(size_) <
      lower_density(tree_height()) * static_cast<double>(capacity())) {
    std::size_t cap = capacity();
    while (cap > kMinCapacity &&
           static_cast<double>(size_) < kRhoRoot * static_cast<double>(cap)) {
      cap /= 2;
    }
    // Keep room to insert again without an immediate grow.
    while (static_cast<double>(size_) > kTauRoot * static_cast<double>(cap)) {
      cap *= 2;
    }
    rebuild_with_capacity(extract_sorted(), cap);
    return removed;
  }
  for (std::size_t leaf = 0; leaf < num_leaves(); ++leaf) {
    std::size_t height = 0;
    std::size_t win_leaves = 1;
    std::size_t first_leaf = leaf;
    for (;;) {
      std::size_t live = 0;
      for (std::size_t l = first_leaf; l < first_leaf + win_leaves; ++l)
        live += leaf_count_[l];
      const std::size_t win_slots = win_leaves * seg_size_;
      if (static_cast<double>(live) >=
              lower_density(height) * static_cast<double>(win_slots) ||
          win_leaves == num_leaves()) {
        if (height > 0) {
          std::vector<uint64_t> live_keys = collect(
              first_leaf * seg_size_, (first_leaf + win_leaves) * seg_size_);
          redistribute(live_keys, first_leaf * seg_size_,
                       (first_leaf + win_leaves) * seg_size_);
          refresh_metadata(first_leaf, win_leaves);
        }
        break;
      }
      ++height;
      win_leaves *= 2;
      first_leaf = (first_leaf / win_leaves) * win_leaves;
    }
  }
  return removed;
}

bool Pma::contains(uint64_t key) const {
  const std::size_t pos = lower_bound_slot(key);
  return pos < capacity() && slots_[pos] == key;
}

std::size_t Pma::lower_bound_slot(uint64_t key) const {
  if (size_ == 0) return capacity();
  const std::size_t leaf = route_leaf(key);
  // With fresh fences the answer lies inside the routed leaf (its live max
  // is >= key), so the common case is one O(seg_size) scan. Stale-high
  // fences after deletions can route one or more leaves early; hop across
  // whole leaves using the counts instead of scanning slot by slot.
  for (std::size_t l = leaf; l < num_leaves(); ++l) {
    if (leaf_count_[l] == 0) continue;
    for (std::size_t i = l * seg_size_; i < (l + 1) * seg_size_; ++i) {
      if (slots_[i] != kEmptyKey && slots_[i] >= key) return i;
    }
    // A non-empty leaf with no key >= `key` means every key here is
    // smaller; keep moving right.
  }
  return capacity();
}

std::vector<uint64_t> Pma::extract_sorted() const {
  return collect(0, capacity());
}

bool Pma::check_invariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why) *why = msg;
    return false;
  };
  if (capacity() % seg_size_ != 0)
    return fail("capacity not a multiple of segment size");
  // Sortedness + uniqueness + live count.
  uint64_t prev = 0;
  bool have_prev = false;
  std::size_t live = 0;
  for (std::size_t i = 0; i < capacity(); ++i) {
    if (slots_[i] == kEmptyKey) continue;
    ++live;
    if (have_prev && slots_[i] <= prev) {
      std::ostringstream oss;
      oss << "order violated at slot " << i;
      return fail(oss.str());
    }
    prev = slots_[i];
    have_prev = true;
  }
  if (live != size_) return fail("size_ does not match live slot count");
  // Leaf metadata consistency.
  for (std::size_t l = 0; l < num_leaves(); ++l) {
    uint32_t count = 0;
    for (std::size_t i = l * seg_size_; i < (l + 1) * seg_size_; ++i)
      if (slots_[i] != kEmptyKey) ++count;
    if (count != leaf_count_[l]) return fail("stale leaf_count_");
  }
  // Root density within the operating envelope (leaves may transiently
  // exceed leaf bounds right after a routed merge into a parent window, so
  // only the root bound is a hard invariant between batches).
  if (size_ > 0 && static_cast<double>(size_) >
                       kTauRoot * static_cast<double>(capacity()) + seg_size_)
    return fail("root density above upper bound");
  return true;
}

}  // namespace stgraph
