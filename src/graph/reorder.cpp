#include "graph/reorder.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/check.hpp"

namespace stgraph {
namespace {

// Undirected adjacency (CSR-ish) for traversals.
struct Adjacency {
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> nbrs;
};

Adjacency build_undirected(uint32_t n, const EdgeList& edges) {
  std::vector<uint32_t> deg(n, 0);
  for (const auto& [s, d] : edges) {
    STG_CHECK(s < n && d < n, "edge endpoint out of range");
    ++deg[s];
    ++deg[d];
  }
  Adjacency adj;
  adj.offsets.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) adj.offsets[v + 1] = adj.offsets[v] + deg[v];
  adj.nbrs.resize(adj.offsets[n]);
  std::vector<uint32_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const auto& [s, d] : edges) {
    adj.nbrs[cursor[s]++] = d;
    adj.nbrs[cursor[d]++] = s;
  }
  return adj;
}

// BFS from `seed`, expanding neighbors in `ascending_degree` order when
// requested (the Cuthill–McKee rule). Appends visited ids to `out`.
void bfs_component(const Adjacency& adj, const std::vector<uint32_t>& deg,
                   uint32_t seed, bool ascending_degree,
                   std::vector<uint8_t>& visited, VertexOrder& out) {
  std::queue<uint32_t> queue;
  queue.push(seed);
  visited[seed] = 1;
  std::vector<uint32_t> nbrs;
  while (!queue.empty()) {
    const uint32_t v = queue.front();
    queue.pop();
    out.push_back(v);
    nbrs.assign(adj.nbrs.begin() + adj.offsets[v],
                adj.nbrs.begin() + adj.offsets[v + 1]);
    if (ascending_degree) {
      std::sort(nbrs.begin(), nbrs.end(), [&](uint32_t a, uint32_t b) {
        return deg[a] != deg[b] ? deg[a] < deg[b] : a < b;
      });
    }
    for (uint32_t u : nbrs) {
      if (!visited[u]) {
        visited[u] = 1;
        queue.push(u);
      }
    }
  }
}

// A far-from-center start vertex: run BFS from the lowest-degree vertex of
// the component and take the last vertex reached.
uint32_t pseudo_peripheral(const Adjacency& adj, uint32_t start,
                           const std::vector<uint8_t>& visited_global) {
  std::vector<uint8_t> visited = visited_global;
  std::queue<uint32_t> queue;
  queue.push(start);
  visited[start] = 1;
  uint32_t last = start;
  while (!queue.empty()) {
    last = queue.front();
    queue.pop();
    for (uint32_t i = adj.offsets[last]; i < adj.offsets[last + 1]; ++i) {
      const uint32_t u = adj.nbrs[i];
      if (!visited[u]) {
        visited[u] = 1;
        queue.push(u);
      }
    }
  }
  return last;
}

VertexOrder traversal_order(uint32_t n, const EdgeList& edges,
                            bool ascending_degree) {
  const Adjacency adj = build_undirected(n, edges);
  std::vector<uint32_t> deg(n);
  for (uint32_t v = 0; v < n; ++v) deg[v] = adj.offsets[v + 1] - adj.offsets[v];

  VertexOrder order;
  order.reserve(n);
  std::vector<uint8_t> visited(n, 0);
  // Visit components in order of their lowest-id vertex; pick a
  // pseudo-peripheral seed per component for shallow BFS trees.
  for (uint32_t v = 0; v < n; ++v) {
    if (visited[v]) continue;
    if (deg[v] == 0) {
      visited[v] = 1;
      order.push_back(v);  // isolated vertices keep id order
      continue;
    }
    const uint32_t seed = pseudo_peripheral(adj, v, visited);
    bfs_component(adj, deg, seed, ascending_degree, visited, order);
  }
  STG_CHECK(order.size() == n, "traversal missed vertices");
  return order;
}

}  // namespace

VertexOrder bfs_order(uint32_t num_nodes, const EdgeList& edges) {
  return traversal_order(num_nodes, edges, /*ascending_degree=*/false);
}

VertexOrder rcm_order(uint32_t num_nodes, const EdgeList& edges) {
  VertexOrder order = traversal_order(num_nodes, edges,
                                      /*ascending_degree=*/true);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<uint32_t> inverse_order(const VertexOrder& order) {
  std::vector<uint32_t> inv(order.size(), 0);
  std::vector<uint8_t> seen(order.size(), 0);
  for (uint32_t new_id = 0; new_id < order.size(); ++new_id) {
    const uint32_t old_id = order[new_id];
    STG_CHECK(old_id < order.size() && !seen[old_id],
              "order array is not a permutation");
    seen[old_id] = 1;
    inv[old_id] = new_id;
  }
  return inv;
}

EdgeList relabel_edges(const EdgeList& edges, const VertexOrder& order) {
  const std::vector<uint32_t> inv = inverse_order(order);
  EdgeList out;
  out.reserve(edges.size());
  for (const auto& [s, d] : edges) {
    STG_CHECK(s < inv.size() && d < inv.size(), "edge endpoint out of range");
    out.emplace_back(inv[s], inv[d]);
  }
  return out;
}

Tensor permute_rows(const Tensor& x, const VertexOrder& order) {
  STG_CHECK(x.dim() == 2 && x.rows() == static_cast<int64_t>(order.size()),
            "permute_rows: ", shape_str(x.shape()), " vs order of ",
            order.size());
  Tensor out = Tensor::empty(x.shape());
  const int64_t f = x.cols();
  for (uint32_t new_id = 0; new_id < order.size(); ++new_id) {
    std::copy(x.data() + static_cast<int64_t>(order[new_id]) * f,
              x.data() + static_cast<int64_t>(order[new_id] + 1) * f,
              out.data() + static_cast<int64_t>(new_id) * f);
  }
  return out;
}

double mean_edge_span(uint32_t num_nodes, const EdgeList& edges) {
  STG_CHECK(num_nodes > 0, "empty graph");
  if (edges.empty()) return 0.0;
  double total = 0;
  for (const auto& [s, d] : edges)
    total += std::abs(static_cast<double>(s) - static_cast<double>(d));
  return total / static_cast<double>(edges.size());
}

}  // namespace stgraph
