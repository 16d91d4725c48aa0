#include "compiler/autodiff.hpp"

#include "compiler/passes.hpp"
#include "util/check.hpp"

namespace stgraph::compiler {

Program differentiate(const Program& p, int input) {
  STG_CHECK(p.agg == AggKind::kSum,
            "differentiate expects an optimized (mean-lowered) program");
  Program b;
  b.agg = AggKind::kSum;
  // d out[v] / d x[u] for edge u→v is the coef product — unchanged. The
  // backward program gathers g (slot 0) along the transposed graph; the
  // kernel's role-swap flag keeps each coefficient evaluated with the same
  // (u, v) orientation it had in the forward pass.
  for (const MessageTerm& t : p.terms) {
    if (t.input != input) continue;
    MessageTerm bt;
    bt.coefs = t.coefs;
    bt.input = 0;  // gather grad_out
    b.terms.push_back(std::move(bt));
  }
  if (p.include_self && p.self_input == input) {
    b.include_self = true;
    b.self_coefs = p.self_coefs;
    b.self_input = 0;
  }
  b.out_scale = p.out_scale;
  STG_CHECK(!b.terms.empty() || b.include_self,
            "program does not depend on input ", input);
  if (b.terms.empty()) {
    // Self-only dependency: keep a zero-coefficient neighbor term out of
    // the IR; the kernel handles empty term lists.
  }
  return optimize(std::move(b));
}

// ---- elementwise-program autodiff ----------------------------------------

namespace {

/// Node-emission helper for the backward program under construction.
struct EwEmitter {
  EwProgram* prog;
  int emit(EwOp op, int a, int b = -1, float imm = 0.0f) {
    EwNode n;
    n.op = op;
    n.a = a;
    n.b = b;
    n.imm = imm;
    prog->nodes.push_back(n);
    return static_cast<int>(prog->nodes.size()) - 1;
  }
};

}  // namespace

EwBackward differentiate_elementwise(const EwProgram& fwd) {
  STG_CHECK(fwd.outputs.size() == 1,
            "elementwise autodiff expects a single-output forward program");
  for (const EwNode& n : fwd.nodes)
    STG_CHECK(n.op != EwOp::kNeg && n.op != EwOp::kReluGrad &&
                  n.op != EwOp::kLeakyGrad,
              "gradient-only op in a forward elementwise program");
  // A kBias input must feed exactly one kAddBias consumer: its gradient is
  // a column reduction, and merging two reductions pointwise would change
  // the accumulation order the unfused tape performs.
  {
    std::vector<int> bias_uses(fwd.inputs.size(), 0);
    for (const EwNode& n : fwd.nodes) {
      if (n.op != EwOp::kAddBias) continue;
      const EwNode& bn = fwd.nodes[static_cast<size_t>(n.b)];
      ++bias_uses[static_cast<size_t>(bn.input)];
    }
    for (size_t i = 0; i < fwd.inputs.size(); ++i)
      STG_CHECK(fwd.inputs[i] != EwInputKind::kBias || bias_uses[i] <= 1,
                "bias input ", i, " feeds more than one add_bias");
  }

  EwBackward bw;
  // Recompute prefix: the forward nodes verbatim (same ids), reading the
  // same input slots — EXCEPT transcendental nodes, whose values the
  // forward pass materializes as extra outputs and the backward reads back
  // as inputs (same bits, no re-evaluated exponential). Unreferenced
  // recomputes are dead-code-eliminated below.
  bw.prog.nodes = fwd.nodes;
  bw.prog.inputs = fwd.inputs;
  bw.prog.inputs.push_back(EwInputKind::kMat);  // grad_out slot
  for (size_t i = 0; i < fwd.nodes.size(); ++i) {
    const EwOp op = fwd.nodes[i].op;
    if (op != EwOp::kSigmoid && op != EwOp::kTanh && op != EwOp::kExp)
      continue;
    EwNode& rn = bw.prog.nodes[i];
    rn.op = EwOp::kInput;
    rn.a = rn.b = -1;
    rn.input = static_cast<int>(bw.prog.inputs.size());
    bw.prog.inputs.push_back(EwInputKind::kMat);
    bw.saved.push_back(static_cast<int>(i));
  }
  EwEmitter e{&bw.prog};
  EwNode gin;
  gin.op = EwOp::kInput;
  gin.input = fwd.num_inputs();
  bw.prog.nodes.push_back(gin);
  const int grad_out = static_cast<int>(bw.prog.nodes.size()) - 1;

  // Pending gradient contributions per forward node, in arrival order —
  // the order autograd::run_backward's add_pending receives them when the
  // program is replayed through ops:: (consumers visited in decreasing
  // creation order; per consumer, operand edges in registration order).
  std::vector<std::vector<int>> pending(fwd.nodes.size());
  pending[static_cast<size_t>(fwd.outputs[0])].push_back(grad_out);

  bw.input_grads.assign(fwd.inputs.size(), -1);

  for (size_t i = fwd.nodes.size(); i-- > 0;) {
    if (pending[i].empty()) continue;
    // Left-associative fold in arrival order == the engine's clone-then-+=
    // accumulation.
    int g = pending[i][0];
    for (size_t k = 1; k < pending[i].size(); ++k)
      g = e.emit(EwOp::kAdd, g, pending[i][k]);
    const EwNode& n = fwd.nodes[i];
    const int fi = static_cast<int>(i);  // recomputed forward value node id
    switch (n.op) {
      case EwOp::kInput:
        bw.input_grads[static_cast<size_t>(n.input)] = g;
        break;
      case EwOp::kAdd:
        pending[static_cast<size_t>(n.a)].push_back(g);
        pending[static_cast<size_t>(n.b)].push_back(g);
        break;
      case EwOp::kSub:
        pending[static_cast<size_t>(n.a)].push_back(g);
        pending[static_cast<size_t>(n.b)].push_back(
            e.emit(EwOp::kMulS, g, -1, -1.0f));
        break;
      case EwOp::kMul:
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMul, g, n.b));
        pending[static_cast<size_t>(n.b)].push_back(
            e.emit(EwOp::kMul, g, n.a));
        break;
      case EwOp::kDiv: {
        // ga = g / b ; gb = g · ((−a) / b²) — neg BEFORE the divide, the
        // association ops.cpp's “-x / (y * y)” evaluates. The order matters
        // bitwise: for a NaN numerator, −(a/b²) flips the sign bit of the
        // propagated NaN while (−a)/b² flips it before the divide, and the
        // two disagree. Parity fuzz salts NaN, so match exactly.
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kDiv, g, n.b));
        const int bb = e.emit(EwOp::kMul, n.b, n.b);
        const int na = e.emit(EwOp::kNeg, n.a);
        const int t = e.emit(EwOp::kDiv, na, bb);
        pending[static_cast<size_t>(n.b)].push_back(
            e.emit(EwOp::kMul, g, t));
        break;
      }
      case EwOp::kAddS:
        pending[static_cast<size_t>(n.a)].push_back(g);
        break;
      case EwOp::kMulS:
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMulS, g, -1, n.imm));
        break;
      case EwOp::kOneMinus:
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMulS, g, -1, -1.0f));
        break;
      case EwOp::kSigmoid: {
        // (g·σ)·(1−σ) — association copied from ops.cpp's sigmoid VJP.
        const int gy = e.emit(EwOp::kMul, g, fi);
        const int om = e.emit(EwOp::kOneMinus, fi);
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMul, gy, om));
        break;
      }
      case EwOp::kTanh: {
        // g·(1−y²).
        const int yy = e.emit(EwOp::kMul, fi, fi);
        const int om = e.emit(EwOp::kOneMinus, yy);
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMul, g, om));
        break;
      }
      case EwOp::kRelu:
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kReluGrad, n.a, g));
        break;
      case EwOp::kLeakyRelu:
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kLeakyGrad, n.a, g, n.imm));
        break;
      case EwOp::kExp:
        // g·exp(x): the recomputed forward node IS exp(x).
        pending[static_cast<size_t>(n.a)].push_back(
            e.emit(EwOp::kMul, g, fi));
        break;
      case EwOp::kAddBias:
        pending[static_cast<size_t>(n.a)].push_back(g);
        // Pointwise bias gradient; the executor column-reduces it with the
        // same serial-over-rows order as ops::add_bias's backward.
        pending[static_cast<size_t>(n.b)].push_back(g);
        break;
      case EwOp::kNeg:
      case EwOp::kReluGrad:
      case EwOp::kLeakyGrad:
        STG_CHECK(false, "gradient-only op in forward program");
    }
  }

  // Outputs = per-input gradients (in input order, skipping zero-grad
  // slots), then DCE the unused recompute prefix and remap.
  for (int gid : bw.input_grads)
    if (gid >= 0) bw.prog.outputs.push_back(gid);
  bw.prog = ew_eliminate_dead(std::move(bw.prog));
  size_t next_out = 0;
  for (size_t i = 0; i < bw.input_grads.size(); ++i)
    if (bw.input_grads[i] >= 0)
      bw.input_grads[i] = bw.prog.outputs[next_out++];
  return bw;
}

BackwardNeeds backward_needs(const Program& /*p*/) {
  BackwardNeeds n;
  // Coefficients never reference feature values in this IR family, so the
  // backward kernel is independent of the forward inputs and outputs.
  n.input_features = false;
  n.output_values = false;
  n.graph = true;
  return n;
}

}  // namespace stgraph::compiler
