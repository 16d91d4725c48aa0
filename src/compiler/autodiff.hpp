// IR-level automatic differentiation (Seastar derives the backward CUDA
// kernel from the forward IR; we derive a backward Program).
//
// Every traced program is linear in its feature inputs (coefficients only
// read degrees / edge weights / constants), so:
//
//   forward:  out[v] = Σ_{u→v} c(u,v)·x[u] + s(v)·x[v]
//   backward: gx[u]  = Σ_{v: u→v} c(u,v)·g[v] + s(u)·g[u]
//
// i.e. the backward pass runs the SAME aggregation over the transposed
// adjacency (the paper's out-neighbor CSR), gathering the output gradient
// instead of features. Crucially the backward program never reads the
// forward input features — backward_needs() reports this, and the
// executor's State Stack uses it to avoid storing feature tensors that the
// backward pass will not touch (the paper's State-Stack memory
// optimization).
#pragma once

#include <vector>

#include "compiler/ir.hpp"

namespace stgraph::compiler {

/// What the backward kernel of a program requires at backward time.
struct BackwardNeeds {
  bool input_features = false;  // x from the forward pass
  bool output_values = false;   // out from the forward pass
  bool graph = true;            // the snapshot (always, via the Graph Stack)
};

/// Derive the backward program of `p` with respect to feature input
/// `input`. The returned program gathers the OUTPUT GRADIENT (its terms
/// reference input slot 0 = grad_out) and must be executed with the
/// producer/consumer roles swapped (KernelArgs::producer_is_col = false)
/// over the transposed adjacency views.
Program differentiate(const Program& p, int input = 0);

/// Static analysis of what `p`'s backward pass needs saved.
BackwardNeeds backward_needs(const Program& p);

// ---- elementwise-program autodiff ----------------------------------------

/// Derived backward of an elementwise program. `prog` takes the forward
/// inputs, the output gradient (one kMat slot), then one kMat slot per
/// `saved` forward value; cheap forward intermediates are recomputed from
/// the inputs, but transcendental nodes (sigmoid/tanh/exp) read the value
/// the forward pass materialized instead — the fused analogue of the
/// tape's saved-output VJPs (ops::sigmoid backward reads the saved y, it
/// never re-evaluates the exponential). The saved value is bitwise the
/// float the recompute would have produced, so this is purely a
/// performance choice.
struct EwBackward {
  EwProgram prog;
  /// Per forward input: node id in `prog` producing its gradient, or -1
  /// when the input is unused (its gradient is identically zero).
  /// Gradients of kBias inputs are pointwise [N, F] values the executor
  /// column-reduces (serial over rows, matching ops::add_bias backward).
  std::vector<int> input_grads;
  /// Forward node ids whose values the backward reads as inputs, in slot
  /// order: saved[j] is fed through input slot num_fwd_inputs + 1 + j.
  /// The executor extends the forward program's outputs with these nodes.
  std::vector<int> saved;
};

/// Derive the backward program of an elementwise region. The VJP formulas
/// and the gradient-accumulation order (reverse node order; contributions
/// folded left-associatively in arrival order) replicate exactly what
/// autograd::run_backward does when the same program is replayed op-by-op
/// through ops:: — the fused and unfused gradients are bit-identical.
EwBackward differentiate_elementwise(const EwProgram& fwd);

}  // namespace stgraph::compiler
