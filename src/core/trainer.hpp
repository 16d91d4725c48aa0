// STGraph-Training (Algorithm 1): sequence-chunked TGNN training over a
// temporally-aware executor.
//
// Per sequence: the forward loop positions the graph object per timestamp
// (pushing DTDG snapshots onto the Graph Stack), layers push saved state
// onto the State Stack, and the accumulated loss is backpropagated — the
// autograd engine visits timestamps in LIFO order, so the executor's
// stacks drain exactly in reverse, which verify_drained() asserts after
// every sequence.
//
// The trainer is a fault-tolerant runtime (docs/internals.md §7):
//
//   * Checkpoint/resume — with `checkpoint_every_n_sequences` set, the
//     full training state (parameters, Adam moments, LR, RNG stream,
//     hidden state, epoch + sequence cursor) is written atomically to
//     `checkpoint_path` at sequence boundaries; `resume(path)` restarts a
//     killed run at the exact boundary and reproduces the uninterrupted
//     run bit for bit.
//   * Numerical guards — a non-finite loss or gradient after backward
//     skips the optimizer step, rolls parameters and hidden state back to
//     the sequence entry, and after `lr_halve_after_failures` consecutive
//     failures halves the learning rate. Counters surface in
//     EpochStats::failures.
//   * Exception safety — a throw mid-sequence (including injected
//     faults, see util/failpoint.hpp) unwinds through
//     TemporalExecutor::abort_sequence(), leaving the executor reusable.
#pragma once

#include <memory>
#include <string>

#include "core/executor.hpp"
#include "datasets/signal.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace stgraph::core {

enum class Task { kNodeRegression, kLinkPrediction };

struct TrainConfig {
  uint32_t epochs = 1;
  uint32_t sequence_length = 8;
  float lr = 1e-2f;
  Task task = Task::kNodeRegression;
  /// State-Stack backward-needs pruning (Figure 6 ablation switch).
  bool state_pruning = true;

  // ---- fault tolerance --------------------------------------------------
  /// Write a full-state checkpoint to `checkpoint_path` every N completed
  /// sequences (counted from the epoch start). 0 disables checkpointing.
  uint32_t checkpoint_every_n_sequences = 0;
  std::string checkpoint_path;
  /// Detect non-finite loss/gradients after backward; skip + roll back.
  bool numerical_guards = true;
  /// Halve the LR after this many consecutive guarded failures.
  uint32_t lr_halve_after_failures = 3;
  /// Global-norm gradient clipping before each step; 0 disables.
  float max_grad_norm = 0.0f;
  /// Seed of the trainer-owned RNG stream (checkpointed with the run).
  uint64_t seed = 0x5354475261ULL;
};

/// Numerical-guard counters, cumulative since construction (or since the
/// state restored by resume() started counting).
struct FailureStats {
  uint64_t non_finite_losses = 0;  // sequences whose loss was NaN/Inf
  uint64_t non_finite_grads = 0;   // sequences with a NaN/Inf gradient
  uint64_t skipped_steps = 0;      // optimizer steps skipped + rolled back
  uint64_t lr_halvings = 0;        // times the guard halved the LR
};

struct EpochStats {
  double loss = 0.0;                  // mean per-timestamp loss
  double seconds = 0.0;               // wall clock for the epoch
  double graph_update_seconds = 0.0;  // Figure 9: snapshot construction
  double gnn_seconds = 0.0;           // Figure 9: everything else
  // GPMAGraph-only split of graph_update_seconds (zero for other graphs):
  // Algorithm-2 delta replay vs snapshot-view rebuild.
  double position_seconds = 0.0;
  double view_seconds = 0.0;
  // Pipeline phase split (PR 8): model compute time per direction, plus
  // how the bounded-staleness prefetch behaved — `stall_seconds` is time
  // Get-Graph spent blocked on an in-flight background prepare, and
  // hits/misses count timestamps served from a published snapshot vs
  // prepared inline on the critical path.
  double forward_seconds = 0.0;
  double backward_seconds = 0.0;
  double stall_seconds = 0.0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
  // Per-op tape profile deltas for the epoch (PR 9, fusing tape compiler):
  // tape_* counts the elementwise/activation tensor ops the autograd tape
  // executed and the intermediate bytes they materialized; fused_* counts
  // fused-region executions and their (single) output buffers. Fusion
  // shrinks tape_op_count/tape_bytes and moves work into fused_*.
  uint64_t tape_op_count = 0;
  uint64_t tape_bytes = 0;
  uint64_t fused_op_count = 0;
  uint64_t fused_bytes = 0;
  FailureStats failures;              // cumulative guard counters
};

class STGraphTrainer {
 public:
  STGraphTrainer(STGraphBase& graph, nn::TemporalModel& model,
                 const datasets::TemporalSignal& signal, TrainConfig config);

  /// One full training epoch (all sequences); returns stats.
  EpochStats train_epoch();

  /// Run the remaining epochs (config.epochs minus any already completed
  /// by a resumed state); returns per-epoch stats.
  std::vector<EpochStats> train();

  /// Mean per-timestamp loss without training (evaluation pass).
  double evaluate();

  /// Export-for-serving reference: a forward-only pass over every
  /// timestamp with a fresh hidden state, returning the model output at
  /// each t. This is exactly the computation serve::Server performs when
  /// it replays the same snapshot sequence from a checkpoint of this
  /// model, so the serving parity test compares against it bit for bit.
  /// Runs with autograd disabled and the executor in inference mode; the
  /// trainer's own hidden state and cursors are untouched.
  std::vector<Tensor> evaluate_outputs();

  /// Restore full training state from a checkpoint written by this
  /// config (same TrainConfig/model/dataset — enforced via the state's
  /// config hash). Training continues at the exact sequence boundary the
  /// state was captured at.
  void resume(const std::string& path);

  /// Write a full-state checkpoint now (between-sequences state).
  void save_checkpoint(const std::string& path) const;

  /// Epochs fully completed so far (advanced by train_epoch/resume).
  uint32_t completed_epochs() const { return epoch_cursor_; }

  const FailureStats& failure_stats() const { return failures_; }

  TemporalExecutor& executor() { return executor_; }
  nn::Adam& optimizer() { return optimizer_; }

 private:
  EpochStats run_epoch(bool training);
  uint64_t config_hash() const;
  void write_train_state(const std::string& path, uint32_t next_sequence,
                         double epoch_loss_total, uint64_t epoch_steps) const;

  STGraphBase& graph_;
  nn::TemporalModel& model_;
  const datasets::TemporalSignal& signal_;
  TrainConfig config_;
  TemporalExecutor executor_;
  nn::Adam optimizer_;
  Rng rng_;

  // ---- resumable position (see docs/internals.md §7) --------------------
  Tensor h_;                     // hidden state carried across sequences
  uint32_t epoch_cursor_ = 0;    // epochs fully completed
  uint32_t sequence_cursor_ = 0;  // mid-epoch restart point (0 = fresh)
  double pending_loss_total_ = 0.0;  // restored epoch accumulators
  uint64_t pending_steps_ = 0;
  uint32_t consecutive_failures_ = 0;
  FailureStats failures_;
};

}  // namespace stgraph::core
