// CSR storage for graph snapshots, matching the paper's Figure 3 layout:
// row_offset / col_indices / eids plus the auxiliary `node_ids` array that
// lists vertices in descending degree order. STGraph processes vertices in
// `node_ids` order instead of relabelling the graph — high-degree vertices
// are scheduled first so their long neighbor lists overlap with many short
// ones (the paper's load-balancing argument), and feature vectors never
// need to be permuted.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "runtime/device_buffer.hpp"

namespace stgraph {

/// Sentinel marking an empty PMA slot inside a gapped column array.
inline constexpr uint32_t kSpace = 0xFFFFFFFFu;

/// The GCN symmetric normalization coefficient for an edge u→v,
/// 1/sqrt((din(u)+1)(din(v)+1)). This single definition is shared by the
/// interpreted kernel, the specialized engine, and every per-snapshot
/// edge-coefficient cache builder so cached and inline values are
/// bit-identical (the product commutes, so argument order is free).
inline float gcn_norm_coef(uint32_t din_u, uint32_t din_v) {
  const float dp = static_cast<float>(din_u + 1);
  const float dc = static_cast<float>(din_v + 1);
  return 1.0f / std::sqrt(dp * dc);
}

/// Edge in COO form with its label (eid). Labels are shared between the
/// forward and backward CSRs so per-edge data (weights) resolves
/// identically in both passes.
struct CooEdge {
  uint32_t src;
  uint32_t dst;
  uint32_t eid;
};

/// One direction of adjacency in CSR form, device-resident.
struct Csr {
  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  DeviceBuffer<uint32_t> row_offset;   // num_nodes + 1
  DeviceBuffer<uint32_t> col_indices;  // num_edges (may contain kSpace in gapped views)
  DeviceBuffer<uint32_t> eids;         // num_edges, shared edge labels
  /// Vertices in descending row-degree order — the processing order.
  DeviceBuffer<uint32_t> node_ids;

  Csr() = default;
  Csr(Csr&&) = default;
  Csr& operator=(Csr&&) = default;
  Csr(const Csr&) = delete;
  Csr& operator=(const Csr&) = delete;
  Csr clone() const;

  std::size_t device_bytes() const {
    return row_offset.bytes() + col_indices.bytes() + eids.bytes() +
           node_ids.bytes();
  }
};

/// Non-owning, kernel-facing view of one adjacency direction.
struct CsrView {
  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  const uint32_t* row_offset = nullptr;
  const uint32_t* col_indices = nullptr;
  const uint32_t* eids = nullptr;
  /// Processing order; null means natural order.
  const uint32_t* node_ids = nullptr;
  /// True when col_indices may contain kSpace sentinels (gapped PMA view).
  bool has_gaps = false;
};

CsrView view_of(const Csr& csr);

/// Build a CSR keyed by `src` (out-adjacency) from unsorted COO edges.
/// Counting sort by row: exclusive scan of degrees, then scatter.
Csr build_csr(uint32_t num_nodes, const std::vector<CooEdge>& edges);

/// Build the reverse CSR (keyed by dst) with the SAME eids.
Csr build_reverse_csr(uint32_t num_nodes, const std::vector<CooEdge>& edges);

/// Degree array of the row dimension of `csr` (row_offset deltas).
std::vector<uint32_t> csr_degrees(const Csr& csr);

/// Fill csr.node_ids with vertices sorted by descending degree (stable, so
/// equal-degree vertices keep id order and results are deterministic).
void degree_sort(Csr& csr);

/// A fully materialized snapshot: both directions + degree arrays.
/// This is what NaiveGraph stores per timestamp (the memory-hungry path).
struct GraphSnapshot {
  uint32_t num_nodes = 0;
  uint32_t num_edges = 0;
  Csr out_csr;  // rows = src; used by the backward pass (out-neighbors)
  Csr in_csr;   // rows = dst; used by the forward pass (in-neighbors)
  DeviceBuffer<uint32_t> in_degrees;
  DeviceBuffer<uint32_t> out_degrees;
  /// Per-edge GCN-norm cache indexed by eid (see gcn_norm_coef). Built once
  /// per snapshot so kernels with kGcnNorm coefs skip the per-edge rsqrt.
  DeviceBuffer<float> gcn_coef;

  GraphSnapshot() = default;
  GraphSnapshot(GraphSnapshot&&) = default;
  GraphSnapshot& operator=(GraphSnapshot&&) = default;
  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  std::size_t device_bytes() const {
    return out_csr.device_bytes() + in_csr.device_bytes() +
           in_degrees.bytes() + out_degrees.bytes() + gcn_coef.bytes();
  }
};

/// Build a full snapshot (both CSRs, degree sort, shared eids 0..m-1 in the
/// order edges appear in `edges` — callers control labelling).
GraphSnapshot build_snapshot(uint32_t num_nodes,
                             const std::vector<CooEdge>& edges);

}  // namespace stgraph
