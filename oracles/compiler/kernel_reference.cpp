#include "compiler/kernel_reference.hpp"

#include <algorithm>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace stgraph::compiler {
namespace {

// Evaluate a coefficient product for edge producer→consumer.
inline float eval_coefs(const std::vector<Coef>& coefs, uint32_t producer,
                        uint32_t consumer, uint32_t eid,
                        const uint32_t* in_deg, const float* edge_w) {
  float c = 1.0f;
  for (const Coef& k : coefs) {
    switch (k.kind) {
      case CoefKind::kConst:
        c *= k.value;
        break;
      case CoefKind::kGcnNorm:
        c *= gcn_norm_coef(in_deg[producer], in_deg[consumer]);
        break;
      case CoefKind::kInvDegree: {
        const uint32_t d = in_deg[consumer];
        c *= d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
        break;
      }
      case CoefKind::kInvDegreeP1:
        c *= 1.0f / static_cast<float>(in_deg[consumer] + 1);
        break;
      case CoefKind::kEdgeWeight:
        c *= edge_w[eid];
        break;
    }
  }
  return c;
}

// Process one row's aggregation over feature columns [f0, f1).
inline void process_row(const KernelSpec& spec, const KernelArgs& a,
                        uint32_t row, uint32_t f0, uint32_t f1) {
  const Program& p = spec.program;
  float* orow = a.out + static_cast<std::size_t>(row) * a.num_feats;
  for (uint32_t f = f0; f < f1; ++f) orow[f] = 0.0f;

  const uint32_t start = a.view.row_offset[row];
  const uint32_t end = a.view.row_offset[row + 1];
  for (uint32_t j = start; j < end; ++j) {
    const uint32_t col = a.view.col_indices[j];
    if (a.view.has_gaps && col == kSpace) continue;  // skip SPACE slots
    const uint32_t eid = a.view.eids[j];
    const uint32_t producer = a.producer_is_col ? col : row;
    const uint32_t consumer = a.producer_is_col ? row : col;
    for (const MessageTerm& t : p.terms) {
      const float c = eval_coefs(t.coefs, producer, consumer, eid,
                                 a.in_degrees, a.edge_weights) *
                      p.out_scale;
      if (c == 0.0f) continue;
      const float* src =
          a.inputs[t.input] + static_cast<std::size_t>(col) * a.num_feats;
      for (uint32_t f = f0; f < f1; ++f) orow[f] += c * src[f];
    }
  }
  if (p.include_self) {
    // Self loop: producer == consumer == row in both directions.
    const float c = eval_coefs(p.self_coefs, row, row, 0, a.in_degrees,
                               a.edge_weights) *
                    p.out_scale;
    const float* src =
        a.self_features + static_cast<std::size_t>(row) * a.num_feats;
    for (uint32_t f = f0; f < f1; ++f) orow[f] += c * src[f];
  }
  if (a.epilogue_bias != nullptr) {
    for (uint32_t f = f0; f < f1; ++f) orow[f] += a.epilogue_bias[f];
  }
}

}  // namespace

void run_kernel_reference(const KernelSpec& spec, const KernelArgs& args) {
  validate_args(spec, args);
  const uint32_t n = args.view.num_nodes;
  const uint32_t F = args.num_feats;
  const uint32_t* order = args.view.node_ids;

  // One vertex per work item below the tiling threshold, else a
  // (vertex × feature tile) grid; degree-sorted order, strided lanes.
  const uint32_t tile = F < kFeatureTileThreshold ? F : kFeatureTile;
  const uint32_t tiles = F == 0 ? 1 : (F + tile - 1) / tile;
  device::parallel_for_strided(n, tiles, [&](std::size_t i, std::size_t t) {
    const uint32_t row = order ? order[i] : static_cast<uint32_t>(i);
    const uint32_t f0 = static_cast<uint32_t>(t) * tile;
    process_row(spec, args, row, f0, std::min(F, f0 + tile));
  });
}

}  // namespace stgraph::compiler
