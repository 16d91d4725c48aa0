#include "compiler/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "compiler/kernel_engine.hpp"
#include "compiler/passes.hpp"
#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"
#include "util/check.hpp"

namespace stgraph::compiler {

namespace {

// Canonical multiplication order for coefficient products. eval_coefs
// multiplies left-to-right, and the specialized engine hoists the prefix of
// factors that only depend on the row; float multiplication commutes
// bitwise but does not associate, so both paths agree bit-for-bit only if
// they multiply in the same order. Sorting coefs into this canonical rank
// (stably, inside compile() — the optimizer passes are order-preserving and
// tested structurally) makes the hoisted prefix a literal prefix of the
// reference evaluation.
int coef_rank(CoefKind k) {
  switch (k) {
    case CoefKind::kConst: return 0;
    case CoefKind::kInvDegree: return 1;
    case CoefKind::kInvDegreeP1: return 2;
    case CoefKind::kGcnNorm: return 3;
    case CoefKind::kEdgeWeight: return 4;
  }
  return 5;
}

void canonicalize(std::vector<Coef>& coefs) {
  std::stable_sort(coefs.begin(), coefs.end(),
                   [](const Coef& a, const Coef& b) {
                     return coef_rank(a.kind) < coef_rank(b.kind);
                   });
}

// Classify one canonical-ordered coef product into a TermPlan. A factor
// count beyond uint8_t is outside the engine grid (no real program comes
// close) and fails compile().
TermPlan make_plan(const std::vector<Coef>& coefs, int input) {
  TermPlan tp;
  tp.input = input;
  auto bump = [](uint8_t& n) {
    STG_CHECK(n < 0xFF,
              "coefficient product has more than 255 factors of one kind");
    ++n;
  };
  for (const Coef& c : coefs) {
    switch (c.kind) {
      case CoefKind::kConst:
        tp.c0 *= c.value;  // left-to-right, same as eval_coefs
        break;
      case CoefKind::kInvDegree:
        bump(tp.inv_deg);
        break;
      case CoefKind::kInvDegreeP1:
        bump(tp.inv_deg_p1);
        break;
      case CoefKind::kGcnNorm:
        bump(tp.gcn);
        break;
      case CoefKind::kEdgeWeight:
        bump(tp.edge_w);
        break;
    }
  }
  return tp;
}

}  // namespace

KernelSpec compile(Program p) {
  KernelSpec spec;
  spec.program = optimize(std::move(p));
  if (spec.program.agg == AggKind::kMax) {
    STG_CHECK(spec.program.terms.size() == 1,
              "max aggregation supports exactly one message term");
    STG_CHECK(spec.program.out_scale > 0.0f,
              "max aggregation requires a positive output scale");
  } else {
    STG_CHECK(spec.program.agg == AggKind::kSum,
              "mean lowering should leave only sum aggregation");
  }
  spec.num_inputs = spec.program.num_inputs();
  for (MessageTerm& t : spec.program.terms) canonicalize(t.coefs);
  canonicalize(spec.program.self_coefs);
  auto scan = [&](const std::vector<Coef>& coefs) {
    for (const Coef& c : coefs) {
      if (c.kind == CoefKind::kEdgeWeight) spec.uses_edge_weight = true;
      if (c.kind == CoefKind::kGcnNorm || c.kind == CoefKind::kInvDegree ||
          c.kind == CoefKind::kInvDegreeP1)
        spec.uses_degrees = true;
    }
  };
  for (const MessageTerm& t : spec.program.terms) scan(t.coefs);
  if (spec.program.include_self) scan(spec.program.self_coefs);

  STG_CHECK(spec.program.terms.size() <= kMaxSpecializedTerms,
            "program has ", spec.program.terms.size(),
            " message terms; the kernel engine supports at most ",
            kMaxSpecializedTerms);
  spec.plans.reserve(spec.program.terms.size());
  for (const MessageTerm& t : spec.program.terms)
    spec.plans.push_back(make_plan(t.coefs, t.input));
  if (spec.program.include_self)
    spec.self_plan = make_plan(spec.program.self_coefs, 0);
  return spec;
}

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

void validate_args(const KernelSpec& spec, const KernelArgs& args) {
  STG_CHECK(args.out != nullptr && args.inputs != nullptr,
            "kernel launched without output/input buffers");
  STG_CHECK(!spec.uses_edge_weight || args.edge_weights != nullptr,
            "program uses edge weights but none were bound");
  STG_CHECK(!spec.uses_degrees || args.in_degrees != nullptr,
            "program uses degrees but no degree array was bound");
  STG_CHECK(!spec.program.include_self || args.self_features != nullptr,
            "program has a self term but self_features is unbound");
  STG_CHECK(spec.program.agg != AggKind::kMax || spec.program.max_backward ||
                args.argmax_out != nullptr,
            "max-aggregation forward needs an argmax_out buffer");
  STG_CHECK(!spec.program.max_backward || args.argmax_in != nullptr,
            "max-aggregation backward needs the recorded argmax_in");
  STG_CHECK(args.epilogue_bias == nullptr ||
                (spec.program.agg == AggKind::kSum && !spec.program.max_backward),
            "epilogue_bias is only defined for sum aggregation");
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

void run_kernel(const KernelSpec& spec, const KernelArgs& args) {
  validate_args(spec, args);
  if (simd::enabled()) {
    detail::run_engine_native(spec, args);
  } else {
    detail::run_engine_scalar(spec, args);
  }
}

}  // namespace stgraph::compiler
