#include "graph/csr.hpp"

#include <algorithm>

#include "runtime/scan.hpp"
#include "runtime/sort.hpp"
#include "util/check.hpp"

namespace stgraph {

Csr Csr::clone() const {
  Csr out;
  out.num_nodes = num_nodes;
  out.num_edges = num_edges;
  out.row_offset = row_offset.clone();
  out.col_indices = col_indices.clone();
  out.eids = eids.clone();
  out.node_ids = node_ids.clone();
  return out;
}

CsrView view_of(const Csr& csr) {
  CsrView v;
  v.num_nodes = csr.num_nodes;
  v.num_edges = csr.num_edges;
  v.row_offset = csr.row_offset.data();
  v.col_indices = csr.col_indices.data();
  v.eids = csr.eids.data();
  v.node_ids = csr.node_ids.empty() ? nullptr : csr.node_ids.data();
  v.has_gaps = false;
  return v;
}

namespace {

Csr build_keyed(uint32_t num_nodes, const std::vector<CooEdge>& edges,
                bool key_by_dst) {
  Csr csr;
  csr.num_nodes = num_nodes;
  csr.num_edges = static_cast<uint32_t>(edges.size());
  csr.row_offset = DeviceBuffer<uint32_t>(num_nodes + 1, MemCategory::kGraph);
  csr.col_indices = DeviceBuffer<uint32_t>(edges.size(), MemCategory::kGraph);
  csr.eids = DeviceBuffer<uint32_t>(edges.size(), MemCategory::kGraph);

  // Counting pass.
  std::vector<uint32_t> counts(num_nodes + 1, 0);
  for (const CooEdge& e : edges) {
    const uint32_t key = key_by_dst ? e.dst : e.src;
    STG_CHECK(key < num_nodes, "edge endpoint ", key, " >= num_nodes ",
              num_nodes);
    const uint32_t other = key_by_dst ? e.src : e.dst;
    STG_CHECK(other < num_nodes, "edge endpoint ", other, " >= num_nodes ",
              num_nodes);
    ++counts[key];
  }
  device::exclusive_scan(counts.data(), counts.data(), counts.size());
  std::copy(counts.begin(), counts.end(), csr.row_offset.data());

  // Scatter pass (stable w.r.t. input order within a row).
  std::vector<uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (const CooEdge& e : edges) {
    const uint32_t key = key_by_dst ? e.dst : e.src;
    const uint32_t pos = cursor[key]++;
    csr.col_indices[pos] = key_by_dst ? e.src : e.dst;
    csr.eids[pos] = e.eid;
  }
  return csr;
}

}  // namespace

Csr build_csr(uint32_t num_nodes, const std::vector<CooEdge>& edges) {
  return build_keyed(num_nodes, edges, /*key_by_dst=*/false);
}

Csr build_reverse_csr(uint32_t num_nodes, const std::vector<CooEdge>& edges) {
  return build_keyed(num_nodes, edges, /*key_by_dst=*/true);
}

std::vector<uint32_t> csr_degrees(const Csr& csr) {
  std::vector<uint32_t> deg(csr.num_nodes);
  for (uint32_t v = 0; v < csr.num_nodes; ++v)
    deg[v] = csr.row_offset[v + 1] - csr.row_offset[v];
  return deg;
}

void degree_sort(Csr& csr) {
  const std::vector<uint32_t> deg = csr_degrees(csr);
  // Descending-degree processing order (paper Figure 3), ties by
  // ascending vertex id.
  csr.node_ids = DeviceBuffer<uint32_t>(csr.num_nodes, MemCategory::kGraph);
  device::degree_order(deg.data(), csr.num_nodes, csr.node_ids.data());
}

GraphSnapshot build_snapshot(uint32_t num_nodes,
                             const std::vector<CooEdge>& edges) {
  GraphSnapshot snap;
  snap.num_nodes = num_nodes;
  snap.num_edges = static_cast<uint32_t>(edges.size());
  snap.out_csr = build_csr(num_nodes, edges);
  snap.in_csr = build_reverse_csr(num_nodes, edges);
  degree_sort(snap.out_csr);
  degree_sort(snap.in_csr);
  snap.in_degrees =
      DeviceBuffer<uint32_t>(csr_degrees(snap.in_csr), MemCategory::kGraph);
  snap.out_degrees =
      DeviceBuffer<uint32_t>(csr_degrees(snap.out_csr), MemCategory::kGraph);
  // Coef cache is eid-indexed; labels are caller-controlled, so size by the
  // largest label rather than the edge count. Labels need not be dense, so
  // the slots no edge writes are filled too.
  uint32_t max_eid = 0;
  for (const CooEdge& e : edges) max_eid = std::max(max_eid, e.eid);
  snap.gcn_coef = DeviceBuffer<float>(edges.empty() ? 0 : max_eid + 1, 0.0f,
                                      MemCategory::kGraph);
  const uint32_t* ind = snap.in_degrees.data();
  for (const CooEdge& e : edges)
    snap.gcn_coef[e.eid] = gcn_norm_coef(ind[e.src], ind[e.dst]);
  return snap;
}

}  // namespace stgraph
