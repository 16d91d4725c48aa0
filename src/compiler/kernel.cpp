#include "compiler/kernel.hpp"

#include <algorithm>

#include "compiler/passes.hpp"
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
  STG_CHECK(spec.program.agg == AggKind::kSum,
            "mean lowering should leave only sum aggregation");
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

void validate_args(const KernelSpec& spec, const KernelArgs& args) {
  STG_CHECK(args.out != nullptr && args.inputs != nullptr,
            "kernel launched without output/input buffers");
  STG_CHECK(!spec.uses_edge_weight || args.edge_weights != nullptr,
            "program uses edge weights but none were bound");
  STG_CHECK(!spec.uses_degrees || args.in_degrees != nullptr,
            "program uses degrees but no degree array was bound");
  STG_CHECK(!spec.program.include_self || args.self_features != nullptr,
            "program has a self term but self_features is unbound");
  STG_CHECK(args.view.eids != nullptr || args.view.row_offset == nullptr ||
                args.view.row_offset[args.view.num_nodes] == 0,
            "kernel view has slots but no eid array");
}

}  // namespace stgraph::compiler
