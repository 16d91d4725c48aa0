#include "runtime/sort.hpp"

#include <algorithm>
#include <array>

namespace stgraph::device {
namespace {

constexpr int kRadixBits = 8;
constexpr std::size_t kBuckets = 1u << kRadixBits;

// One LSD pass over `pass`-th byte; stable.
void radix_pass(const std::vector<uint64_t>& in, std::vector<uint64_t>& out,
                const std::vector<uint64_t>* payload_in,
                std::vector<uint64_t>* payload_out, int pass) {
  const int shift = pass * kRadixBits;
  std::array<std::size_t, kBuckets> count{};
  for (uint64_t k : in) ++count[(k >> shift) & (kBuckets - 1)];
  std::size_t sum = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    std::size_t c = count[b];
    count[b] = sum;
    sum += c;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::size_t b = (in[i] >> shift) & (kBuckets - 1);
    out[count[b]] = in[i];
    if (payload_in) (*payload_out)[count[b]] = (*payload_in)[i];
    ++count[b];
  }
}

bool pass_needed(const std::vector<uint64_t>& keys, int pass) {
  // Skip passes whose byte is constant across the whole batch (common:
  // graph ids rarely use all 8 bytes).
  const int shift = pass * kRadixBits;
  if (keys.empty()) return false;
  const uint64_t first = (keys[0] >> shift) & (kBuckets - 1);
  for (uint64_t k : keys) {
    if (((k >> shift) & (kBuckets - 1)) != first) return true;
  }
  return false;
}

}  // namespace

void radix_sort(std::vector<uint64_t>& keys) {
  if (keys.size() < 2) return;
  std::vector<uint64_t> tmp(keys.size());
  std::vector<uint64_t>* src = &keys;
  std::vector<uint64_t>* dst = &tmp;
  for (int pass = 0; pass < 8; ++pass) {
    if (!pass_needed(*src, pass)) continue;
    radix_pass(*src, *dst, nullptr, nullptr, pass);
    std::swap(src, dst);
  }
  if (src != &keys) keys = std::move(*src);
}

void radix_sort_pairs(std::vector<uint64_t>& keys,
                      std::vector<uint64_t>& payload) {
  if (keys.size() < 2) return;
  std::vector<uint64_t> ktmp(keys.size()), ptmp(payload.size());
  std::vector<uint64_t>*ks = &keys, *kd = &ktmp, *ps = &payload, *pd = &ptmp;
  for (int pass = 0; pass < 8; ++pass) {
    if (!pass_needed(*ks, pass)) continue;
    radix_pass(*ks, *kd, ps, pd, pass);
    std::swap(ks, kd);
    std::swap(ps, pd);
  }
  if (ks != &keys) {
    keys = std::move(*ks);
    payload = std::move(*ps);
  }
}

void degree_order(const uint32_t* deg, uint32_t n, uint32_t* out) {
  uint32_t max_deg = 0;
  for (uint32_t v = 0; v < n; ++v) max_deg = std::max(max_deg, deg[v]);
  // Bucket b holds degree max_deg - b, so buckets run in descending degree;
  // placing ids in ascending order keeps each bucket sorted by id.
  std::vector<uint32_t> start(static_cast<std::size_t>(max_deg) + 2, 0);
  for (uint32_t v = 0; v < n; ++v) ++start[max_deg - deg[v] + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  for (uint32_t v = 0; v < n; ++v) out[start[max_deg - deg[v]]++] = v;
}

}  // namespace stgraph::device
