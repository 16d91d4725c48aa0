#include "compiler/fusion_replay.hpp"

#include "tensor/ops.hpp"
#include "util/check.hpp"

namespace stgraph::compiler::fusion {

Tensor replay_unfused(const EwProgram& p, const std::vector<Tensor>& inputs) {
  STG_CHECK(p.outputs.size() == 1,
            "replay_unfused expects a single-output forward program");
  std::vector<Tensor> vals(p.nodes.size());
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    const EwNode& n = p.nodes[i];
    const Tensor& a = n.a >= 0 ? vals[static_cast<std::size_t>(n.a)] : vals[0];
    const Tensor& b = n.b >= 0 ? vals[static_cast<std::size_t>(n.b)] : vals[0];
    switch (n.op) {
      case EwOp::kInput:
        vals[i] = inputs[static_cast<std::size_t>(n.input)];
        break;
      case EwOp::kAdd: vals[i] = ops::add(a, b); break;
      case EwOp::kSub: vals[i] = ops::sub(a, b); break;
      case EwOp::kMul: vals[i] = ops::mul(a, b); break;
      case EwOp::kDiv: vals[i] = ops::div(a, b); break;
      case EwOp::kAddS: vals[i] = ops::add_scalar(a, n.imm); break;
      case EwOp::kMulS: vals[i] = ops::mul_scalar(a, n.imm); break;
      case EwOp::kOneMinus: vals[i] = ops::one_minus(a); break;
      case EwOp::kSigmoid: vals[i] = ops::sigmoid(a); break;
      case EwOp::kTanh: vals[i] = ops::tanh_op(a); break;
      case EwOp::kRelu: vals[i] = ops::relu(a); break;
      case EwOp::kLeakyRelu: vals[i] = ops::leaky_relu(a, n.imm); break;
      case EwOp::kExp: vals[i] = ops::exp_op(a); break;
      case EwOp::kAddBias: vals[i] = ops::add_bias(a, b); break;
      case EwOp::kNeg:
      case EwOp::kReluGrad:
      case EwOp::kLeakyGrad:
        STG_CHECK(false, "gradient-only op in a forward replay");
    }
  }
  return vals[static_cast<std::size_t>(p.outputs[0])];
}

}  // namespace stgraph::compiler::fusion
