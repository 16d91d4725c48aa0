// Vertex reordering for memory locality. The paper's §V-B motivates
// STGraph's auxiliary node_ids array by how *expensive* full relabelling
// is on dynamic graphs (feature rows would have to be permuted per
// snapshot); this module provides the relabelling machinery for the
// static case where it IS worthwhile — preprocess once, then every
// gather in every epoch touches memory in a friendlier order:
//
//   * bfs_order      — breadth-first layering from a pseudo-peripheral
//                      seed (good baseline locality),
//   * rcm_order      — reverse Cuthill–McKee: BFS with degree-sorted
//                      tie-breaking, reversed; the classic bandwidth
//                      reducer,
//   * apply_permutation / relabel_edges — rewrite an edge list (and
//                      feature matrices) under a new vertex numbering.
//
// The locality effect is measured by bench_micro_kernels' reordering
// ablation; correctness (permutation round-trips, invariance of training
// results) is covered in tests/test_reorder.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dtdg.hpp"
#include "tensor/tensor.hpp"

namespace stgraph {

/// order[new_id] = old_id. Every vertex appears exactly once; isolated
/// vertices are appended in id order.
using VertexOrder = std::vector<uint32_t>;

/// Breadth-first order over the undirected view of `edges`, started from
/// a pseudo-peripheral vertex of each connected component.
VertexOrder bfs_order(uint32_t num_nodes, const EdgeList& edges);

/// Reverse Cuthill–McKee order (BFS + ascending-degree neighbor
/// expansion, then reversed).
VertexOrder rcm_order(uint32_t num_nodes, const EdgeList& edges);

/// Inverse permutation: perm[old_id] = new_id for an order array.
std::vector<uint32_t> inverse_order(const VertexOrder& order);

/// Relabel an edge list under `order` (order[new] = old).
EdgeList relabel_edges(const EdgeList& edges, const VertexOrder& order);

/// Permute the rows of a [N, F] feature tensor: out[new] = x[order[new]].
Tensor permute_rows(const Tensor& x, const VertexOrder& order);

/// Mean |new(u) - new(v)| over edges — the locality figure of merit the
/// orderings minimize (proportional to expected gather distance).
double mean_edge_span(uint32_t num_nodes, const EdgeList& edges);

}  // namespace stgraph
