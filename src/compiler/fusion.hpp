// The fusing tape compiler's execution layer. A FusedOp owns one traced,
// optimized elementwise program plus its derived backward; calling it runs
// the whole region as ONE pass over the feature arrays (intermediates live
// in registers, never materialized) and attaches a single autograd node
// whose backward runs the derived gradient program in one more pass.
//
// The interpreter (run_ew_program) is a SIMD interpreter: it walks
// kEwBlock-element blocks with a register file of kEwBlock floats per
// node, each node's loop stepping one native vector (runtime/simd.hpp) and
// the block's tail running the same code through ScalarOps. Input arrays
// are read in place. It has one instantiation, against simd::NativeOps; a
// -DSTGRAPH_NATIVE_ARCH=OFF build makes that ScalarOps throughout.
//
// Bit-parity contract (tests/test_fusion.cpp):
//
//   * The unfused replay (oracles/compiler/fusion_replay.hpp, installed in
//     test binaries through the replay seam below) runs the SAME optimized
//     program node-by-node through the ops:: tape — losses, parameters,
//     and gradients are memcmp-equal against the fused path. Both paths
//     call the one sigmoid/tanh definition in tensor/ewmath.cpp, every
//     other node is a single lane-exact IEEE op, and both TUs compile with
//     -ffp-contract=off so no path gains an FMA the other lacks.
//   * The bits do not depend on the SIMD width, the thread count, or
//     where a block's vector/tail split lands: every lane computes what
//     the scalar formula computes.
//   * Collapsing a region to one node preserves the engine's gradient
//     accumulation order: the replayed region occupies a contiguous run of
//     autograd sequence numbers, so all in-region contributions to any
//     producer arrive adjacently (decreasing-seq order) — exactly the
//     left-associative fold differentiate_elementwise emits. Out-of-region
//     consumers keep their relative arrival position either way.
//   * A kBias input's gradient is reduced by ops::detail::column_sums,
//     the reduce ops::add_bias's backward uses (each column summed over
//     rows in order; vectorized only across columns).
//   * Non-finite propagation is covered too (the fuzz salts NaN and Inf),
//     with one carve-out: when BOTH operands of a binary op are NaN with
//     different bit patterns, IEEE lets hardware return either payload and
//     C does not pin operand order, so the resulting NaN's sign/payload is
//     codegen-dependent on every path. As long as a single NaN pattern is
//     in flight (a propagated qNaN, or the ffc00000 indefinite that
//     invalid ops produce) parity is exact.
//   * An empty region (zero rows or columns) returns an empty output and
//     zero gradients without launching, as the replay does.
//
// Compile once: construction traces, optimizes and differentiates the
// region, and every call runs those same programs on whatever [N,F] shape
// it is given — nothing in a program depends on the shape, so there is no
// per-shape cache and the fused path takes no lock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/autodiff.hpp"
#include "compiler/ir.hpp"
#include "compiler/trace.hpp"
#include "tensor/tensor.hpp"

namespace stgraph::compiler::fusion {

/// Interpreter capacity: programs beyond this node count are rejected at
/// FusedOp construction (the largest real cell region is ~30 backward
/// nodes). Register file = kMaxEwNodes × kEwBlock floats on the stack.
inline constexpr int kMaxEwNodes = 64;
inline constexpr int kEwBlock = 64;

/// The test seam, null in production: while the oracle library's
/// ReplayScope installs a replay, FusedOp::operator() returns
/// `replay(forward_program(), inputs)` and SeastarGCNConv adds its bias in
/// a separate pass instead of in the aggregation's epilogue.
using ReplayFn = Tensor (*)(const EwProgram&, const std::vector<Tensor>&);
ReplayFn replay();
void set_replay(ReplayFn fn);

/// One traced region. Construction traces, optimizes, and differentiates
/// the program once; operator() runs the fused program.
class FusedOp {
 public:
  FusedOp(std::string name, const std::function<EwExpr(EwTracer&)>& build);

  /// Execute on `inputs` (kMat inputs [N,F], kBias inputs [F], in program
  /// input-slot order). Fused: one pass + one autograd node. With a replay
  /// installed: the same program replayed through ops::.
  Tensor operator()(const std::vector<Tensor>& inputs) const;

  const std::string& name() const { return name_; }
  const EwProgram& forward_program() const { return fwd_; }
  const EwBackward& backward_program() const { return exec_->bwd; }

 private:
  /// What the fused path executes: fwd_ with its outputs extended by the
  /// transcendental values the backward reads back (bwd.saved), and the
  /// derived backward. Shared with every pending backward closure, so a
  /// backward may run after its FusedOp is gone.
  struct Exec {
    EwProgram fwd;
    EwBackward bwd;
  };

  std::string name_;
  EwProgram fwd_;  // single-output program (what a replay evaluates)
  std::shared_ptr<const Exec> exec_;
};

/// Raw blocked interpreter (no autograd): evaluate `p` elementwise over
/// rows×cols, writing one [rows,cols] array per program output (nothing
/// on an empty view). Exposed for the parity fuzz tests.
void run_ew_program(const EwProgram& p, const float* const* inputs,
                    int64_t rows, int64_t cols, float* const* outputs);

// ---- the cell regions the nn/ layers route through the compiler ----------
// Each is a static FusedOp traced at first use. Single leftover ops
// (e.g. GRU's r⊙h) stay on the plain tape — a one-node "region" would
// only add dispatch overhead.

/// σ(a + b)
Tensor sigmoid_add(const Tensor& a, const Tensor& b);
/// tanh(a + b)
Tensor tanh_add(const Tensor& a, const Tensor& b);
/// z⊙h + (1−z)⊙c — the GRU state blend.
Tensor gate_combine(const Tensor& z, const Tensor& h, const Tensor& c);
/// f⊙c + i⊙g — the LSTM cell-state update.
Tensor lstm_cell_state(const Tensor& f, const Tensor& c, const Tensor& i,
                       const Tensor& g);
/// o⊙tanh(c) — the LSTM hidden-state readout.
Tensor mul_tanh(const Tensor& o, const Tensor& c);
/// σ(x + bias) — fused linear epilogue (bias broadcast over rows).
Tensor bias_sigmoid(const Tensor& x, const Tensor& bias);
/// tanh(x + bias)
Tensor bias_tanh(const Tensor& x, const Tensor& bias);

}  // namespace stgraph::compiler::fusion
