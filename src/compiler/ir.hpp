// Intermediate representation for vertex-centric programs (the Seastar
// layer STGraph inherits, §IV). A user-written vertex function is traced
// into this IR, optimized, auto-differentiated, and lowered to a fused
// gather-aggregate kernel spec executed by the device runtime.
//
// The IR models the message-passing family the paper's models need:
//
//   out[v] = Σ / mean over in-neighbors u of v:
//              (Π coefs(u→v)) · x_input[u]
//          + (optional self term) (Π self_coefs(v)) · x_input[v]
//
// Coefficients never depend on feature values (they read degrees, per-edge
// weights or constants), so every program in this family is LINEAR in its
// feature inputs — which the autodiff pass exploits: the backward program
// is the same aggregation over the transposed graph, and — key for the
// paper's State-Stack memory optimization — it does not need the forward
// input features at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stgraph::compiler {

/// Multiplicative coefficient attached to a message along edge u→v.
enum class CoefKind : uint8_t {
  kConst,        // literal
  kGcnNorm,      // 1 / sqrt((din(u)+1) (din(v)+1))  — symmetric GCN norm
  kInvDegree,    // 1 / din(v)            — mean aggregation (consumer side)
  kInvDegreeP1,  // 1 / (din(v)+1)        — mean with self loop
  kEdgeWeight,   // w[eid]                — per-edge scalar
};

struct Coef {
  CoefKind kind = CoefKind::kConst;
  float value = 1.0f;  // used by kConst
};

/// One additive message term: (Π coefs) · x_{input}[producer].
struct MessageTerm {
  std::vector<Coef> coefs;
  int input = 0;  // which feature input the producer value is read from
};

enum class AggKind : uint8_t { kSum, kMean };

/// A full vertex program (single fused aggregation stage).
struct Program {
  AggKind agg = AggKind::kSum;
  std::vector<MessageTerm> terms;
  bool include_self = false;
  std::vector<Coef> self_coefs;  // multiply x_{self_input}[v]
  int self_input = 0;
  float out_scale = 1.0f;  // post-aggregation scaling, fused into the kernel
  /// Number of distinct feature inputs referenced.
  int num_inputs() const;
  std::string to_string() const;
};

/// Structural equality (used by pass tests).
bool operator==(const Coef& a, const Coef& b);
bool operator==(const MessageTerm& a, const MessageTerm& b);
bool operator==(const Program& a, const Program& b);

// ---------------------------------------------------------------------------
// Elementwise-program IR (the fusing tape compiler).
//
// Aggregations are one half of a temporal cell; the other half is the
// chain of elementwise ops around them — gate activations, bias adds,
// GRU/LSTM combines. Executed op-by-op through the autograd tape, every
// op materializes a full [N, F] intermediate. An EwProgram captures such a
// chain as a small dataflow DAG so the whole region runs as ONE pass over
// the feature arrays (and its derived backward as one more).
//
// Node operands reference earlier nodes by index, so a program listing is
// always in topological (creation) order — the same order the unfused
// reference path replays it through ops::, which is what makes the fused
// and unfused gradients accumulate bit-identically.
// ---------------------------------------------------------------------------

enum class EwOp : uint8_t {
  kInput,      // leaf: runtime input slot `input`
  kAdd,        // a + b
  kSub,        // a - b
  kMul,        // a * b
  kDiv,        // a / b
  kAddS,       // a + imm
  kMulS,       // a * imm
  kNeg,        // -a                      (backward programs only)
  kOneMinus,   // 1 - a
  kSigmoid,    // stable logistic
  kTanh,       // tanh
  kRelu,       // max(a, 0)
  kLeakyRelu,  // a > 0 ? a : imm * a
  kExp,        // exp(a)
  kAddBias,    // a[r,c] + b[c]  (b must be a kBias input)
  kReluGrad,   // a > 0 ? b : 0           (backward programs only)
  kLeakyGrad,  // a > 0 ? b : imm * b     (backward programs only)
};

/// How a runtime input broadcasts over the [N, F] iteration space.
enum class EwInputKind : uint8_t {
  kMat,   // full [N, F] operand
  kBias,  // [F] vector broadcast over rows (bias of kAddBias)
};

struct EwNode {
  EwOp op = EwOp::kInput;
  int a = -1;        // first operand node id
  int b = -1;        // second operand node id (binary ops)
  float imm = 0.0f;  // kAddS / kMulS / kLeakyRelu slope
  int input = -1;    // kInput: runtime input slot
};

/// A fused elementwise region: nodes in topological order, one or more
/// outputs (forward programs have one; derived backward programs have one
/// per differentiable forward input).
struct EwProgram {
  std::vector<EwNode> nodes;
  std::vector<EwInputKind> inputs;
  std::vector<int> outputs;

  int num_inputs() const { return static_cast<int>(inputs.size()); }
  /// Canonical listing, e.g. "%0=in0; %1=in1; %2=add(%0,%1); %3=sig(%2) -> %3".
  std::string to_string() const;
};

const char* ew_op_name(EwOp op);
bool operator==(const EwNode& a, const EwNode& b);
bool operator==(const EwProgram& a, const EwProgram& b);

}  // namespace stgraph::compiler
