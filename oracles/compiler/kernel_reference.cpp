#include "compiler/kernel_reference.hpp"

#include <algorithm>
#include <limits>

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

// Max-aggregation forward: element-wise max over neighbor candidates
// (plus the optional self candidate), recording the winning producer per
// (row, feature) cell into argmax_out.
inline void process_row_max(const KernelSpec& spec, const KernelArgs& a,
                            uint32_t row, uint32_t f0, uint32_t f1) {
  const Program& p = spec.program;
  float* orow = a.out + static_cast<std::size_t>(row) * a.num_feats;
  uint32_t* arow = a.argmax_out + static_cast<std::size_t>(row) * a.num_feats;
  for (uint32_t f = f0; f < f1; ++f) {
    orow[f] = -std::numeric_limits<float>::infinity();
    arow[f] = kSpace;
  }
  const MessageTerm& term = p.terms[0];
  const uint32_t start = a.view.row_offset[row];
  const uint32_t end = a.view.row_offset[row + 1];
  for (uint32_t j = start; j < end; ++j) {
    const uint32_t col = a.view.col_indices[j];
    if (a.view.has_gaps && col == kSpace) continue;
    const uint32_t eid = a.view.eids ? a.view.eids[j] : j;
    const float c =
        eval_coefs(term.coefs, col, row, eid, a.in_degrees, a.edge_weights);
    const float* src =
        a.inputs[term.input] + static_cast<std::size_t>(col) * a.num_feats;
    for (uint32_t f = f0; f < f1; ++f) {
      const float val = c * src[f];
      if (val > orow[f]) {
        orow[f] = val;
        arow[f] = col;
      }
    }
  }
  if (p.include_self) {
    const float c = eval_coefs(p.self_coefs, row, row, 0, a.in_degrees,
                               a.edge_weights);
    const float* src =
        a.self_features + static_cast<std::size_t>(row) * a.num_feats;
    for (uint32_t f = f0; f < f1; ++f) {
      const float val = c * src[f];
      if (val > orow[f]) {
        orow[f] = val;
        arow[f] = row;
      }
    }
  }
  for (uint32_t f = f0; f < f1; ++f) {
    if (arow[f] == kSpace) {
      orow[f] = 0.0f;  // no candidates: empty max defined as 0
    } else {
      orow[f] *= p.out_scale;
    }
  }
}

// Max-aggregation backward over the transposed view (rows are producers):
// gradient flows only along recorded argmax edges.
inline void process_row_max_bwd(const KernelSpec& spec, const KernelArgs& a,
                                uint32_t row, uint32_t f0, uint32_t f1) {
  const Program& p = spec.program;
  float* orow = a.out + static_cast<std::size_t>(row) * a.num_feats;
  for (uint32_t f = f0; f < f1; ++f) orow[f] = 0.0f;
  const MessageTerm& term = p.terms[0];
  const uint32_t start = a.view.row_offset[row];
  const uint32_t end = a.view.row_offset[row + 1];
  for (uint32_t j = start; j < end; ++j) {
    const uint32_t col = a.view.col_indices[j];  // consumer vertex
    if (a.view.has_gaps && col == kSpace) continue;
    const uint32_t eid = a.view.eids ? a.view.eids[j] : j;
    const uint32_t* amax =
        a.argmax_in + static_cast<std::size_t>(col) * a.num_feats;
    const float* grad =
        a.inputs[term.input] + static_cast<std::size_t>(col) * a.num_feats;
    float c = 0.0f;
    bool have_c = false;
    for (uint32_t f = f0; f < f1; ++f) {
      if (amax[f] != row) continue;
      if (!have_c) {
        c = eval_coefs(term.coefs, row, col, eid, a.in_degrees,
                       a.edge_weights) *
            p.out_scale;
        have_c = true;
      }
      orow[f] += c * grad[f];
    }
  }
  if (p.include_self) {
    // The consumer `row` itself may have picked its self candidate.
    const uint32_t* amax =
        a.argmax_in + static_cast<std::size_t>(row) * a.num_feats;
    const float* grad =
        a.self_features + static_cast<std::size_t>(row) * a.num_feats;
    const float c = eval_coefs(p.self_coefs, row, row, 0, a.in_degrees,
                               a.edge_weights) *
                    p.out_scale;
    for (uint32_t f = f0; f < f1; ++f) {
      if (amax[f] == row) orow[f] += c * grad[f];
    }
  }
}

// Process one row's aggregation over feature columns [f0, f1).
inline void process_row(const KernelSpec& spec, const KernelArgs& a,
                        uint32_t row, uint32_t f0, uint32_t f1) {
  if (spec.program.max_backward) {
    process_row_max_bwd(spec, a, row, f0, f1);
    return;
  }
  if (spec.program.agg == AggKind::kMax) {
    process_row_max(spec, a, row, f0, f1);
    return;
  }
  const Program& p = spec.program;
  float* orow = a.out + static_cast<std::size_t>(row) * a.num_feats;
  for (uint32_t f = f0; f < f1; ++f) orow[f] = 0.0f;

  const uint32_t start = a.view.row_offset[row];
  const uint32_t end = a.view.row_offset[row + 1];
  for (uint32_t j = start; j < end; ++j) {
    const uint32_t col = a.view.col_indices[j];
    if (a.view.has_gaps && col == kSpace) continue;  // skip SPACE slots
    const uint32_t eid = a.view.eids ? a.view.eids[j] : j;
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
