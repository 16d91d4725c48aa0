// DeviceBuffer<T>: the unit of "device memory" in the CPU substrate.
//
// In the original system these arrays live on the GPU (allocated through
// CUDA-Python / Thrust); here they are host vectors whose bytes are
// charged to MemoryTracker so the paper's memory experiments remain
// meaningful. The buffer is movable but not copyable — explicit `clone()`
// keeps accidental O(E) copies out of hot paths.
//
// Like cudaMalloc (and torch.empty), a new buffer is not value-initialized:
// `DeviceBuffer(n, cat)` and a growing `resize` leave the new elements
// unwritten, so each producer writes its output once. A buffer that must
// start at a value says so: `DeviceBuffer(n, fill, cat)` or `fill()`.
#pragma once

#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "runtime/memory_tracker.hpp"
#include "util/check.hpp"

namespace stgraph {

/// Allocator for device arrays. Small buffers get cache-line alignment so
/// SIMD row loads never split a line; buffers past 2 MiB are allocated on
/// 2 MiB boundaries and advised MADV_HUGEPAGE, so the kernel can back the
/// feature matrices with huge pages. The sparse gather in the kernel
/// engine touches rows all over a multi-MiB array — with 4 KiB pages that
/// walk misses the second-level TLB constantly, and the page walks show up
/// directly in the gather latency.
template <typename T>
struct DeviceAllocator {
  using value_type = T;

  DeviceAllocator() = default;
  template <typename U>
  DeviceAllocator(const DeviceAllocator<U>&) {}  // NOLINT(runtime/explicit)

  static constexpr std::size_t kHugeBytes = std::size_t{2} << 20;

  T* allocate(std::size_t n) {
    std::size_t bytes = n * sizeof(T);
    const std::size_t align = bytes >= kHugeBytes ? kHugeBytes : 64;
    bytes = (bytes + align - 1) / align * align;  // aligned_alloc contract
    void* p = std::aligned_alloc(align, bytes);
    if (p == nullptr) throw std::bad_alloc();
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    if (align == kHugeBytes) madvise(p, bytes, MADV_HUGEPAGE);
#endif
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  /// Default-initialize rather than value-initialize: std::vector's
  /// resize constructs new elements through this, and for the trivial
  /// element types used here that writes nothing. Constructions with
  /// arguments fall back to std::allocator_traits' placement new.
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }

  template <typename U>
  bool operator==(const DeviceAllocator<U>&) const { return true; }
  template <typename U>
  bool operator!=(const DeviceAllocator<U>&) const { return false; }
};

template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  explicit DeviceBuffer(std::size_t n, MemCategory cat = MemCategory::kScratch)
      : cat_(cat) {
    resize(n);
  }
  DeviceBuffer(std::size_t n, T fill, MemCategory cat)
      : cat_(cat) {
    resize(n);
    std::fill(data_.begin(), data_.end(), fill);
  }
  /// Upload: copy a host vector into device memory.
  DeviceBuffer(const std::vector<T>& host, MemCategory cat) : cat_(cat) {
    resize(host.size());
    if (!host.empty()) std::memcpy(data_.data(), host.data(), bytes());
  }

  ~DeviceBuffer() { charge(0); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      charge(0);
      data_ = std::move(other.data_);
      charged_ = other.charged_;
      cat_ = other.cat_;
      other.data_.clear();
      other.charged_ = 0;
    }
    return *this;
  }

  DeviceBuffer clone() const {
    DeviceBuffer out(size(), cat_);
    if (size()) std::memcpy(out.data(), data(), bytes());
    return out;
  }

  /// Resize to n elements; elements past the old size are unwritten (and
  /// may hold stale values when regrowing inside retained capacity). Heap
  /// capacity is deliberately retained when shrinking (like a caching
  /// allocator): per-step view rebuilds resize the same buffers up and
  /// down a few percent, and reallocating each time would put malloc on
  /// the hot path. MemoryTracker is charged for the logical size, matching
  /// what the GPU original would allocate.
  void resize(std::size_t n) {
    data_.resize(n);
    charge(n * sizeof(T));
  }

  /// Release the retained slack (used when a buffer goes cold).
  void shrink_to_fit() { data_.shrink_to_fit(); }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }

  T& operator[](std::size_t i) {
    STG_DCHECK(i < data_.size(), "DeviceBuffer index ", i, " out of range ", data_.size());
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    STG_DCHECK(i < data_.size(), "DeviceBuffer index ", i, " out of range ", data_.size());
    return data_[i];
  }

  /// Download to a host vector (for tests and debugging).
  std::vector<T> to_host() const { return {data_.begin(), data_.end()}; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  void charge(std::size_t new_bytes) {
    auto& tracker = MemoryTracker::instance();
    if (new_bytes > charged_) tracker.allocate(new_bytes - charged_, cat_);
    if (new_bytes < charged_) tracker.release(charged_ - new_bytes, cat_);
    charged_ = new_bytes;
  }

  std::vector<T, DeviceAllocator<T>> data_;
  std::size_t charged_ = 0;
  MemCategory cat_ = MemCategory::kScratch;
};

}  // namespace stgraph
