// Outside-in tracing for the traced run: spans kept in per-thread memory and
// written as Chrome trace-event JSON at exit, plus decorators that time the
// public entry points of the graph and model layers.
//
// The decorators wrap what a trainer or server is handed — an STGraphBase
// and an nn::TemporalModel — so the library runs unmodified and unaware.
// Spans inside src/ are a separate, later change; until then whatever the
// decorators cannot see lands in the `*_resid_s` buckets.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/stgraph_base.hpp"
#include "nn/models.hpp"
#include "tensor/op_profile.hpp"

namespace stgbench::trace {

/// Spans are recorded only while armed.
void arm(bool on);

/// Record one finished span on the calling thread's buffer.
void record(const char* name, int64_t begin_ns, int64_t end_ns,
            uint64_t id = 0);

/// RAII span over a scope.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  int64_t begin_;
};

/// Chrome trace-event JSON ("X" complete events, microseconds) of every
/// span recorded so far, loadable in chrome://tracing and Perfetto. `meta`
/// goes to "otherData". Call only after every recording thread has finished
/// (buffers are appended without a lock).
bool write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta);

// ---- decorators --------------------------------------------------------------

/// Call count and total nanoseconds of one decorated entry point.
struct CallStat {
  std::atomic<uint64_t> calls{0};
  std::atomic<int64_t> ns{0};

  void add(int64_t dt) {
    calls.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(dt, std::memory_order_relaxed);
  }
  double seconds() const {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
};

/// Times get_graph / get_backward_graph / prefetch / append_delta and
/// forwards everything else to the wrapped graph. Both passes prefetch
/// (the trainer after each forward view, the executor after each backward
/// view), so a prefetch also counts in `prefetch_bwd_stat` when the last
/// view handed out was a backward one.
class TracedGraph final : public stgraph::STGraphBase {
 public:
  explicit TracedGraph(stgraph::STGraphBase& inner) : inner_(inner) {}

  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  uint32_t num_edges_at(uint32_t t) const override {
    return inner_.num_edges_at(t);
  }
  uint32_t num_timestamps() const override { return inner_.num_timestamps(); }
  bool is_dynamic() const override { return inner_.is_dynamic(); }
  std::string format_name() const override { return inner_.format_name(); }
  std::size_t device_bytes() const override { return inner_.device_bytes(); }
  bool supports_append() const override { return inner_.supports_append(); }

  stgraph::SnapshotView get_graph(uint32_t t) override;
  stgraph::SnapshotView get_backward_graph(uint32_t t) override;
  void prefetch(uint32_t t) override;
  void append_delta(const stgraph::EdgeDelta& delta) override;

  CallStat get_graph_stat, get_backward_stat, prefetch_stat, append_stat;
  CallStat prefetch_bwd_stat;

 private:
  stgraph::STGraphBase& inner_;
  std::atomic<bool> in_backward_{false};
};

/// Times step() and the tensor ops it runs (op-profile delta across the
/// call). Parameters are the wrapped model's, registered as child "inner",
/// so optimizers and checkpoints see the same tensors in the same order.
///
/// Given the decorated graph of the same trainer, it also counts the ops of
/// the forward loss: a trainer computes step t's loss between step t and
/// step t+1 of a sequence, so the op-profile delta across that gap is
/// exactly the loss. After the last step of a sequence the loss and the
/// backward pass follow with no public call in between; that loss is
/// charged the ops of the gap before it (same shapes, one step earlier).
class TracedModel final : public stgraph::nn::TemporalModel {
 public:
  explicit TracedModel(stgraph::nn::TemporalModel& inner,
                       const TracedGraph* graph = nullptr);

  std::pair<stgraph::Tensor, stgraph::Tensor> step(
      stgraph::core::TemporalExecutor& exec, const stgraph::Tensor& x,
      const stgraph::Tensor& h, const float* edge_weights) override;
  stgraph::Tensor initial_state(int64_t num_nodes) const override {
    return inner_.initial_state(num_nodes);
  }
  /// Charges the loss of the last step of the current sequence; call after
  /// each epoch (the next sequence's first step does it otherwise).
  void end_sequence();

  CallStat step_stat;
  /// Op-profile counts accumulated inside step(), and those of the forward
  /// loss. Kept only when constructed with a graph: the single training
  /// loop, never concurrent serving readers.
  stgraph::ops::OpProfile ops_in_step;
  stgraph::ops::OpProfile ops_fwd_loss;

 private:
  stgraph::nn::TemporalModel& inner_;
  const TracedGraph* graph_;
  bool loss_pending_ = false;  ///< a step ended; its loss is not yet charged
  stgraph::ops::OpProfile step_end_;  ///< profile when that step ended
  uint64_t backward_calls_at_end_ = 0;
  stgraph::ops::OpProfile last_gap_;  ///< the latest measured loss gap
};

/// a + b for op profiles (the library only defines a - b).
stgraph::ops::OpProfile add(const stgraph::ops::OpProfile& a,
                            const stgraph::ops::OpProfile& b);
double op_seconds(const stgraph::ops::OpProfile& p, stgraph::ops::OpClass c);
/// Time of every op class the library times (elementwise, activation,
/// matmul, reduction, fused).
double timed_op_seconds(const stgraph::ops::OpProfile& p);

}  // namespace stgbench::trace
