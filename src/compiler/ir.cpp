#include "compiler/ir.hpp"

#include <algorithm>
#include <sstream>

namespace stgraph::compiler {

int Program::num_inputs() const {
  int n = 0;
  for (const MessageTerm& t : terms) n = std::max(n, t.input + 1);
  if (include_self) n = std::max(n, self_input + 1);
  return n;
}

namespace {
const char* coef_name(CoefKind k) {
  switch (k) {
    case CoefKind::kConst: return "const";
    case CoefKind::kGcnNorm: return "gcn_norm";
    case CoefKind::kInvDegree: return "inv_deg";
    case CoefKind::kInvDegreeP1: return "inv_deg_p1";
    case CoefKind::kEdgeWeight: return "edge_w";
    default: return "?";
  }
}
void print_coefs(std::ostringstream& oss, const std::vector<Coef>& coefs) {
  if (coefs.empty()) {
    oss << "1";
    return;
  }
  for (size_t i = 0; i < coefs.size(); ++i) {
    if (i) oss << "*";
    oss << coef_name(coefs[i].kind);
    if (coefs[i].kind == CoefKind::kConst) oss << "(" << coefs[i].value << ")";
  }
}
}  // namespace

std::string Program::to_string() const {
  std::ostringstream oss;
  oss << "out[v] = " << (out_scale != 1.0f ? std::to_string(out_scale) + " * " : "")
      << (agg == AggKind::kSum ? "sum" : "mean") << "_{u in N(v)} [";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i) oss << " + ";
    print_coefs(oss, terms[i].coefs);
    oss << " * x" << terms[i].input << "[u]";
  }
  oss << "]";
  if (include_self) {
    oss << " + ";
    print_coefs(oss, self_coefs);
    oss << " * x" << self_input << "[v]";
  }
  return oss.str();
}

bool operator==(const Coef& a, const Coef& b) {
  return a.kind == b.kind && (a.kind != CoefKind::kConst || a.value == b.value);
}
bool operator==(const MessageTerm& a, const MessageTerm& b) {
  return a.input == b.input && a.coefs == b.coefs;
}
bool operator==(const Program& a, const Program& b) {
  return a.agg == b.agg && a.terms == b.terms &&
         a.include_self == b.include_self && a.self_coefs == b.self_coefs &&
         a.self_input == b.self_input && a.out_scale == b.out_scale;
}

// ---- elementwise-program IR ----------------------------------------------

const char* ew_op_name(EwOp op) {
  switch (op) {
    case EwOp::kInput: return "in";
    case EwOp::kAdd: return "add";
    case EwOp::kSub: return "sub";
    case EwOp::kMul: return "mul";
    case EwOp::kDiv: return "div";
    case EwOp::kAddS: return "add_s";
    case EwOp::kMulS: return "mul_s";
    case EwOp::kNeg: return "neg";
    case EwOp::kOneMinus: return "one_minus";
    case EwOp::kSigmoid: return "sig";
    case EwOp::kTanh: return "tanh";
    case EwOp::kRelu: return "relu";
    case EwOp::kLeakyRelu: return "leaky_relu";
    case EwOp::kExp: return "exp";
    case EwOp::kAddBias: return "add_bias";
    case EwOp::kReluGrad: return "relu_grad";
    case EwOp::kLeakyGrad: return "leaky_grad";
  }
  return "?";
}

std::string EwProgram::to_string() const {
  std::ostringstream oss;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const EwNode& n = nodes[i];
    if (i) oss << "; ";
    oss << "%" << i << "=" << ew_op_name(n.op);
    if (n.op == EwOp::kInput) {
      oss << n.input
          << (inputs[static_cast<size_t>(n.input)] == EwInputKind::kBias
                  ? "b"
                  : "");
      continue;
    }
    oss << "(%" << n.a;
    if (n.b >= 0) oss << ",%" << n.b;
    if (n.op == EwOp::kAddS || n.op == EwOp::kMulS ||
        n.op == EwOp::kLeakyRelu || n.op == EwOp::kLeakyGrad)
      oss << "," << n.imm;
    oss << ")";
  }
  oss << " -> ";
  for (size_t i = 0; i < outputs.size(); ++i)
    oss << (i ? "," : "") << "%" << outputs[i];
  return oss.str();
}

bool operator==(const EwNode& a, const EwNode& b) {
  return a.op == b.op && a.a == b.a && a.b == b.b && a.imm == b.imm &&
         a.input == b.input;
}

bool operator==(const EwProgram& a, const EwProgram& b) {
  return a.nodes == b.nodes && a.inputs == b.inputs && a.outputs == b.outputs;
}

}  // namespace stgraph::compiler
