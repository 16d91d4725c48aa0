// Functional edge-weight tests: per-edge data indexed by the shared edge
// labels must resolve to the same weight in the forward (reverse-CSR) and
// backward (gapped PMA) views, across timestamps and relabelings — the
// reason the paper's abstraction requires label sharing at all.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "compiler/kernel.hpp"
#include "core/executor.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/naive_graph.hpp"
#include "graph/static_graph.hpp"
#include "nn/gcn.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

using WeightMap = std::map<std::pair<uint32_t, uint32_t>, float>;

// Build the per-eid weight array for a snapshot view from a semantic
// (src, dst) → weight map, reading labels off the backward (out) view.
std::vector<float> weights_for_view(const SnapshotView& v,
                                    const WeightMap& wm) {
  std::vector<float> w(v.num_edges, -1.0f);
  for (uint32_t r = 0; r < v.num_nodes; ++r) {
    for (uint32_t j = v.out_view.row_offset[r];
         j < v.out_view.row_offset[r + 1]; ++j) {
      const uint32_t c = v.out_view.col_indices[j];
      if (v.out_view.has_gaps && c == kSpace) continue;
      const uint32_t eid = v.out_view.eids[j];
      auto it = wm.find({r, c});
      EXPECT_NE(it, wm.end()) << "edge (" << r << "," << c << ")";
      if (it != wm.end()) w[eid] = it->second;
    }
  }
  for (float x : w) EXPECT_GE(x, 0.0f) << "unassigned edge label";
  return w;
}

// Dense weighted-GCN reference.
std::vector<float> dense_reference(uint32_t n, const EdgeList& edges,
                                   const WeightMap& wm,
                                   const std::vector<float>& x, int64_t F) {
  std::vector<uint32_t> din(n, 0);
  for (const auto& [u, v] : edges) ++din[v];
  std::vector<float> out(n * F, 0.0f);
  for (const auto& [u, v] : edges) {
    const float c = wm.at({u, v}) /
                    std::sqrt(float(din[u] + 1) * float(din[v] + 1));
    for (int64_t f = 0; f < F; ++f) out[v * F + f] += c * x[u * F + f];
  }
  for (uint32_t v = 0; v < n; ++v)
    for (int64_t f = 0; f < F; ++f)
      out[v * F + f] += x[v * F + f] / float(din[v] + 1);
  return out;
}

TEST(EdgeWeights, GpmaRelabelledIdsResolveConsistentlyAcrossTimestamps) {
  Rng rng(3);
  EdgeList stream;
  for (int i = 0; i < 900; ++i) {
    uint32_t s = static_cast<uint32_t>(rng.next_below(25));
    uint32_t d = static_cast<uint32_t>(rng.next_below(25));
    if (s == d) d = (d + 1) % 25;
    stream.emplace_back(s, d);
  }
  DtdgEvents ev = window_edge_stream(25, stream, 10.0);
  GpmaGraph gpma(ev);
  const int64_t F = 3;

  // Semantic weights for every edge that ever exists.
  WeightMap wm;
  for (uint32_t t = 0; t < ev.num_timestamps(); ++t)
    for (const auto& e : ev.snapshot_edges(t))
      if (!wm.count(e)) wm[e] = rng.uniform(0.5f, 1.5f);

  nn::SeastarGCNConv probe(F, F, rng);  // compiled weighted kernels
  std::vector<float> x(25 * F);
  for (auto& v : x) v = rng.normal();

  for (uint32_t t = 0; t < ev.num_timestamps(); t += 3) {
    SnapshotView view = gpma.get_graph(t);
    const std::vector<float> w = weights_for_view(view, wm);
    // Run the forward kernel with per-eid weights bound; labels produced
    // by relabelling at THIS timestamp must address the same semantic
    // weights in the in view (reverse CSR) the kernel consumes.
    std::vector<float> out(25 * F);
    compiler::KernelArgs args;
    args.view = view.in_view;
    args.in_degrees = view.in_degrees;
    const float* inputs[1] = {x.data()};
    args.inputs = inputs;
    args.self_features = x.data();
    args.edge_weights = w.data();
    args.out = out.data();
    args.num_feats = F;
    args.producer_is_col = true;
    compiler::run_kernel(probe.forward_kernel(), args);

    const auto want = dense_reference(25, ev.snapshot_edges(t), wm, x, F);
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_NEAR(out[i], want[i], 1e-4f) << "t=" << t << " entry " << i;
  }
}

TEST(EdgeWeights, NaiveAndGpmaWeightedOutputsAgree) {
  Rng rng(7);
  EdgeList stream;
  for (int i = 0; i < 700; ++i) {
    uint32_t s = static_cast<uint32_t>(rng.next_below(20));
    uint32_t d = static_cast<uint32_t>(rng.next_below(20));
    if (s == d) d = (d + 1) % 20;
    stream.emplace_back(s, d);
  }
  DtdgEvents ev = window_edge_stream(20, stream, 10.0);
  NaiveGraph naive(ev);
  GpmaGraph gpma(ev);
  WeightMap wm;
  for (uint32_t t = 0; t < ev.num_timestamps(); ++t)
    for (const auto& e : ev.snapshot_edges(t))
      if (!wm.count(e)) wm[e] = rng.uniform(0.5f, 1.5f);

  const int64_t F = 2;
  Rng wa(11), wb(11);
  nn::SeastarGCNConv conv_a(F, F, wa), conv_b(F, F, wb);
  core::TemporalExecutor ea(naive), eb(gpma);
  NoGradGuard ng;
  Tensor x = Tensor::randn({20, F}, rng);

  for (uint32_t t = 0; t < ev.num_timestamps(); t += 2) {
    ea.begin_forward_step(t);
    eb.begin_forward_step(t);
    const std::vector<float> w_naive =
        weights_for_view(naive.get_graph(t), wm);
    const std::vector<float> w_gpma = weights_for_view(gpma.get_graph(t), wm);
    Tensor ya = conv_a.forward(ea, x, w_naive.data());
    Tensor yb = conv_b.forward(eb, x, w_gpma.data());
    for (int64_t i = 0; i < ya.numel(); ++i)
      ASSERT_NEAR(ya.at(i), yb.at(i), 1e-4f) << "t=" << t;
  }
}

}  // namespace
}  // namespace stgraph
