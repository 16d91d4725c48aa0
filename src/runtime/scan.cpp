#include "runtime/scan.hpp"

#include <algorithm>

#include "runtime/parallel.hpp"

namespace stgraph::device {
namespace {

// Chunked scan: each of R ranges scans its chunk and records its total,
// a serial scan of the R totals gives each range its offset, and a second
// pass adds the offsets. R = 1 (one lane, or too small to pay for the
// second pass) is the plain serial scan.
template <typename T>
void inclusive_scan_impl(const T* in, T* out, std::size_t n) {
  if (n == 0) return;
  const unsigned lanes = lane_count();
  const std::size_t R = n <= (std::size_t{1} << 14) ? 1 : lanes;
  const std::size_t chunk = (n + R - 1) / R;
  std::vector<T> sums(R, 0);
  parallel_for_ranges(
      R,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t b = r * chunk, e = std::min(n, b + chunk);
          T acc = 0;
          for (std::size_t i = b; i < e; ++i) {
            acc += in[i];
            out[i] = acc;
          }
          sums[r] = acc;
        }
      },
      /*grain=*/1);
  if (R == 1) return;
  T carry = 0;
  for (std::size_t r = 0; r < R; ++r) {
    const T s = sums[r];
    sums[r] = carry;
    carry += s;
  }
  parallel_for_ranges(
      R,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t b = r * chunk, e = std::min(n, b + chunk);
          const T offset = sums[r];
          if (offset == 0) continue;
          for (std::size_t i = b; i < e; ++i) out[i] += offset;
        }
      },
      /*grain=*/1);
}

template <typename T>
T exclusive_scan_impl(const T* in, T* out, std::size_t n) {
  if (n == 0) return 0;
  // Compute the inclusive scan, then shift. Keep the grand total before the
  // shift destroys it when aliased.
  inclusive_scan_impl(in, out, n);
  const T total = out[n - 1];
  for (std::size_t i = n; i-- > 1;) out[i] = out[i - 1];
  out[0] = 0;
  return total;
}

}  // namespace

void inclusive_scan(const uint64_t* in, uint64_t* out, std::size_t n) {
  inclusive_scan_impl(in, out, n);
}
void inclusive_scan(const uint32_t* in, uint32_t* out, std::size_t n) {
  inclusive_scan_impl(in, out, n);
}
uint64_t exclusive_scan(const uint64_t* in, uint64_t* out, std::size_t n) {
  return exclusive_scan_impl(in, out, n);
}
uint32_t exclusive_scan(const uint32_t* in, uint32_t* out, std::size_t n) {
  return exclusive_scan_impl(in, out, n);
}

std::vector<uint64_t> inclusive_scan(const std::vector<uint64_t>& in) {
  std::vector<uint64_t> out(in.size());
  inclusive_scan(in.data(), out.data(), in.size());
  return out;
}
std::vector<uint64_t> exclusive_scan(const std::vector<uint64_t>& in) {
  std::vector<uint64_t> out(in.size());
  exclusive_scan(in.data(), out.data(), in.size());
  return out;
}

}  // namespace stgraph::device
