// Temporally-aware Executor (paper Figure 1 / §V): the component that
// orchestrates which snapshot and which saved state the generated kernels
// see during forward and backward propagation.
//
// Forward protocol (driven by the training loop, Algorithm 1 lines 8-16):
//   begin_forward_step(t)  — position the graph object at t (Algorithm 2
//                            for GPMAGraph) and, for DTDGs, push t onto
//                            the Graph Stack;
//   forward_view()         — adjacency views layers aggregate with;
//   save_for_backward(...) — layers push their backward-needed tensors
//                            onto the State Stack (pruned per the
//                            compiler's backward-needs analysis unless
//                            pruning is disabled).
//
// Backward protocol (driven by the autograd nodes the layers registered,
// lines 18-25): the first backward node of timestamp t calls
// backward_view(t), which pops the Graph Stack (asserting it yields t)
// and re-positions the graph object via Get-Backward-Graph; sibling nodes
// of the same timestamp get the already-positioned view. Saved tensors are
// retrieved by ticket, enforcing the LIFO discipline.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "compiler/autodiff.hpp"
#include "core/graph_stack.hpp"
#include "core/state_stack.hpp"
#include "graph/stgraph_base.hpp"
#include "util/timer.hpp"

namespace stgraph::core {

class TemporalExecutor {
 public:
  explicit TemporalExecutor(STGraphBase& graph);

  STGraphBase& graph() { return graph_; }

  // ---- forward protocol --------------------------------------------------
  /// Position the graph object for the forward pass of timestamp t.
  void begin_forward_step(uint32_t t);
  /// Views of the snapshot positioned by the last begin_forward_step.
  const SnapshotView& forward_view() const;
  uint32_t current_forward_timestamp() const;

  /// Push the pruned saved-tensor set of one layer invocation. When
  /// pruning is disabled (ablation), callers pass the conservative set via
  /// `unpruned` and it is stored instead. With pruning on `unpruned` is
  /// dropped, so callers build it only when state_pruning() is off.
  StateStack::Ticket save_for_backward(std::vector<Tensor> pruned,
                                       std::vector<Tensor> unpruned);

  // ---- backward protocol ---------------------------------------------------
  /// Position the graph object for the backward pass of timestamp t.
  const SnapshotView& backward_view(uint32_t t);
  std::vector<Tensor> retrieve_saved(StateStack::Ticket ticket);

  // ---- configuration / instrumentation ---------------------------------
  /// Disable the State-Stack backward-needs pruning (Figure 6 ablation).
  void set_state_pruning(bool enabled) { state_pruning_ = enabled; }
  bool state_pruning() const { return state_pruning_; }

  /// Forward-only execution for serving (src/serve/): no Graph Stack
  /// pushes, no State Stack retention (save_for_backward becomes a no-op
  /// returning kInferenceTicket), and the backward protocol is rejected
  /// outright. Layers already skip their saves under NoGradGuard; inference
  /// mode makes forward-only execution a property of the executor itself,
  /// so a serving path cannot accidentally retain backward state even if a
  /// caller forgets the guard. Toggling requires drained stacks.
  void set_inference_mode(bool on);
  bool inference_mode() const { return inference_mode_; }
  /// Ticket returned by save_for_backward in inference mode; never
  /// retrievable.
  static constexpr StateStack::Ticket kInferenceTicket =
      ~StateStack::Ticket{0};

  StateStack& state_stack() { return state_stack_; }
  GraphStack& graph_stack() { return graph_stack_; }
  const StateStack& state_stack() const { return state_stack_; }
  const GraphStack& graph_stack() const { return graph_stack_; }

  /// Time spent inside graph positioning (both directions) — together with
  /// GpmaGraph::update_timer this feeds Figure 9's update/GNN split.
  PhaseTimer& positioning_timer() { return positioning_timer_; }

  /// Sanity check between sequences: both stacks must have drained.
  void verify_drained() const;

  /// Exception-safe unwind: drain both stacks and forget the in-progress
  /// step so a throw mid-sequence (a layer error, an injected fault)
  /// leaves the executor reusable instead of poisoned. The trainer calls
  /// this from its catch path; verify_drained() passes afterwards.
  void abort_sequence();

  /// Optional event trace: when set, the executor appends one line per
  /// protocol event ("fwd t=2", "push state #5", "pop graph t=2", ...).
  /// Used by the Figure-2 walkthrough test and for debugging training
  /// patterns; null disables tracing (the default, zero overhead beyond a
  /// branch).
  void set_trace(std::vector<std::string>* sink) { trace_ = sink; }

 private:
  void record(const std::string& event) {
    if (trace_) trace_->push_back(event);
  }
  STGraphBase& graph_;
  StateStack state_stack_;
  GraphStack graph_stack_;
  SnapshotView current_view_{};
  std::optional<uint32_t> fwd_timestamp_;
  std::optional<uint32_t> bwd_timestamp_;
  bool state_pruning_ = true;
  bool inference_mode_ = false;
  PhaseTimer positioning_timer_;
  std::vector<std::string>* trace_ = nullptr;
};

}  // namespace stgraph::core
