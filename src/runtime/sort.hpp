// Sorting — the Thrust/CUB `sort` analogue used by the GPMA batch update
// path (updates must be key-sorted before leaf partitioning) and by the
// degree-sort that builds the `node_ids` processing-order array.
#pragma once

#include <cstdint>
#include <vector>

namespace stgraph::device {

/// LSD radix sort of 64-bit keys (stable). Fast path for PMA update
/// batches where keys are (src << 32 | dst).
void radix_sort(std::vector<uint64_t>& keys);

/// Stable radix sort of (key, payload) pairs by key.
void radix_sort_pairs(std::vector<uint64_t>& keys,
                      std::vector<uint64_t>& payload);

/// Vertex ids [0, n) ordered by descending deg[v], ties by ascending id
/// (the paper's degree-sorted node_ids). Serial stable counting sort,
/// O(n + max degree); writes n ids to `out`.
void degree_order(const uint32_t* deg, uint32_t n, uint32_t* out);

}  // namespace stgraph::device
