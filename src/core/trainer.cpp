#include "core/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gpma/gpma_graph.hpp"
#include "io/train_state.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/failpoint.hpp"
#include "util/timer.hpp"
#include "verify/invariants.hpp"
#include "verify/validate.hpp"

namespace stgraph::core {
namespace {

/// FNV-1a over the raw bytes of a trivially-copyable value.
template <typename T>
uint64_t fnv1a(uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool all_finite(const float* p, int64_t n) {
  for (int64_t i = 0; i < n; ++i)
    if (!std::isfinite(p[i])) return false;
  return true;
}

}  // namespace

STGraphTrainer::STGraphTrainer(STGraphBase& graph, nn::TemporalModel& model,
                               const datasets::TemporalSignal& signal,
                               TrainConfig config)
    : graph_(graph),
      model_(model),
      signal_(signal),
      config_(config),
      executor_(graph),
      optimizer_(model.parameters(), config.lr),
      rng_(config.seed) {
  STG_CHECK(signal_.num_timestamps() >= 1, "signal has no timestamps");
  STG_CHECK(config_.sequence_length >= 1, "sequence length must be positive");
  STG_CHECK(config_.task != Task::kNodeRegression || signal_.has_node_targets(),
            "node regression requires node targets in the signal");
  STG_CHECK(config_.task != Task::kLinkPrediction || signal_.has_link_samples(),
            "link prediction requires link samples in the signal");
  STG_CHECK(config_.checkpoint_every_n_sequences == 0 ||
                !config_.checkpoint_path.empty(),
            "checkpoint_every_n_sequences is set but checkpoint_path is "
            "empty");
  STG_CHECK(config_.lr_halve_after_failures >= 1,
            "lr_halve_after_failures must be positive");
  executor_.set_state_pruning(config_.state_pruning);
}

uint64_t STGraphTrainer::config_hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv1a(h, config_.epochs);
  h = fnv1a(h, config_.sequence_length);
  h = fnv1a(h, config_.lr);
  h = fnv1a(h, config_.task);
  h = fnv1a(h, config_.state_pruning);
  h = fnv1a(h, config_.checkpoint_every_n_sequences);
  h = fnv1a(h, config_.numerical_guards);
  h = fnv1a(h, config_.lr_halve_after_failures);
  h = fnv1a(h, config_.max_grad_norm);
  h = fnv1a(h, config_.seed);
  // Pin the run shape too: a different model or dataset must not be
  // resumable even if the config matches.
  h = fnv1a(h, model_.parameter_count());
  h = fnv1a(h, signal_.num_timestamps());
  return h;
}

void STGraphTrainer::write_train_state(const std::string& path,
                                       uint32_t next_sequence,
                                       double epoch_loss_total,
                                       uint64_t epoch_steps) const {
  io::TrainState st;
  st.config_hash = config_hash();
  st.epoch = epoch_cursor_;
  st.next_sequence = next_sequence;
  st.lr = optimizer_.learning_rate();
  st.optimizer_step_count = optimizer_.step_count();
  st.params = model_.parameters();
  st.moment1 = optimizer_.moment1();
  st.moment2 = optimizer_.moment2();
  st.hidden = h_;
  st.rng = rng_.state();
  st.consecutive_failures = consecutive_failures_;
  st.non_finite_losses = failures_.non_finite_losses;
  st.non_finite_grads = failures_.non_finite_grads;
  st.skipped_steps = failures_.skipped_steps;
  st.lr_halvings = failures_.lr_halvings;
  st.epoch_loss_total = epoch_loss_total;
  st.epoch_steps = epoch_steps;
  io::save_train_state(st, path);
}

void STGraphTrainer::save_checkpoint(const std::string& path) const {
  write_train_state(path, sequence_cursor_, pending_loss_total_,
                    pending_steps_);
}

void STGraphTrainer::resume(const std::string& path) {
  io::TrainState st = io::load_train_state(path);
  STG_CHECK(st.config_hash == config_hash(), "train state '", path,
            "' was produced under a different TrainConfig, model, or "
            "dataset — refusing to resume");

  auto params = model_.parameters();
  io::restore_parameters(params, st.params, "train state '" + path + "'");
  optimizer_.restore_moments(st.moment1, st.moment2);
  optimizer_.set_step_count(st.optimizer_step_count);
  optimizer_.set_learning_rate(st.lr);
  rng_.set_state(st.rng);
  // The hidden state resumes detached, exactly as it was at the boundary.
  h_ = st.hidden;
  epoch_cursor_ = st.epoch;
  sequence_cursor_ = st.next_sequence;
  pending_loss_total_ = st.epoch_loss_total;
  pending_steps_ = st.epoch_steps;
  consecutive_failures_ = st.consecutive_failures;
  failures_.non_finite_losses = st.non_finite_losses;
  failures_.non_finite_grads = st.non_finite_grads;
  failures_.skipped_steps = st.skipped_steps;
  failures_.lr_halvings = st.lr_halvings;
}

EpochStats STGraphTrainer::run_epoch(bool training) {
  const uint32_t T =
      std::min<uint32_t>(signal_.num_timestamps(), graph_.num_timestamps());
  const uint32_t L = config_.sequence_length;
  const uint32_t num_sequences = (T + L - 1) / L;
  const float* edge_weights =
      signal_.edge_weights.empty() ? nullptr : signal_.edge_weights.data();

  Timer epoch_timer;
  // Per-op tape profile: counters are process-global, so the epoch's share
  // is the delta between snapshots taken at entry and exit.
  const ops::OpProfile profile_entry = ops::profile_snapshot();
  // Figure 9 attribution: snapshot-construction time accumulates in the
  // executor's positioning timer (which wraps Get-Graph / Algorithm 2 and
  // the Algorithm-3 rebuilds); reset so this epoch's share is isolated.
  executor_.positioning_timer().reset();
  if (auto* gpma = dynamic_cast<GpmaGraph*>(&graph_)) {
    gpma->update_timer().reset();
    gpma->reset_update_stats();
  }

  double loss_total = 0.0;
  uint64_t steps = 0;
  uint32_t first_seq = 0;
  PhaseTimer forward_timer;
  PhaseTimer backward_timer;
  // Evaluation carries its own hidden state so an interleaved evaluate()
  // never disturbs a resumed training position.
  Tensor eval_h;
  Tensor& h = training ? h_ : eval_h;
  if (training && sequence_cursor_ > 0) {
    // Resumed mid-epoch: pick up the cursor and accumulators; h_ was
    // restored by resume().
    first_seq = sequence_cursor_;
    loss_total = pending_loss_total_;
    steps = pending_steps_;
    sequence_cursor_ = 0;
    pending_loss_total_ = 0.0;
    pending_steps_ = 0;
  } else if (training) {
    h_ = Tensor();  // fresh epoch: hidden state restarts
  }

  for (uint32_t seq = first_seq; seq < num_sequences; ++seq) {
    const uint32_t seq_start = seq * L;
    const uint32_t seq_end = std::min(T, seq_start + L);

    // Rollback anchors: the (detached) hidden state at sequence entry and
    // a shadow copy of every parameter.
    const Tensor h_entry = h;
    std::vector<Tensor> shadow;
    if (training && config_.numerical_guards) {
      shadow.reserve(optimizer_.params().size());
      for (const nn::Parameter& p : optimizer_.params())
        shadow.push_back(p.tensor.clone());
    }

    Tensor loss_acc;
    try {
      {
        PhaseScope fwd_scope(forward_timer);
        for (uint32_t t = seq_start; t < seq_end; ++t) {
          executor_.begin_forward_step(t);
          // Pipeline hint: while this step's layers compute on the view
          // just positioned, the graph object may replay t+1's deltas and
          // publish its view in the background (bounded staleness of 1).
          if (t + 1 < seq_end) graph_.prefetch(t + 1);
          const Tensor& x = signal_.features[t];
          if (!h.defined()) h = model_.initial_state(x.rows());
          auto [out, h_next] = model_.step(executor_, x, h, edge_weights);
          h = h_next;

          Tensor loss_t;
          if (config_.task == Task::kNodeRegression) {
            loss_t = ops::mse_loss(out, signal_.targets[t]);
          } else {
            const datasets::LinkSamples& ls = signal_.links[t];
            Tensor logits = nn::link_logits(out, ls.src, ls.dst);
            loss_t = ops::bce_with_logits_loss(logits, ls.labels);
          }
          loss_acc = loss_acc.defined() ? ops::add(loss_acc, loss_t) : loss_t;
        }
      }
      if (training) {
        PhaseScope bwd_scope(backward_timer);
        optimizer_.zero_grad();
        loss_acc.backward();
      }
    } catch (...) {
      // Unwind to a consistent empty-stack state so the executor (and the
      // trainer) stay reusable after a mid-sequence throw.
      executor_.abort_sequence();
      h = h_entry;
      throw;
    }

    const double seq_loss = loss_acc.item();
    bool skipped = false;
    if (training) {
      STG_FAILPOINT("trainer.grad.nan", {
        // Poison one gradient value to exercise the guard path.
        for (const nn::Parameter& p : optimizer_.params()) {
          Tensor g = p.tensor.grad();
          if (g.defined() && g.numel() > 0) {
            g.data()[0] = std::numeric_limits<float>::quiet_NaN();
            break;
          }
        }
      });
      if (config_.numerical_guards) {
        const bool bad_loss = !std::isfinite(seq_loss);
        bool bad_grad = false;
        for (const nn::Parameter& p : optimizer_.params()) {
          const Tensor g = p.tensor.grad();
          if (g.defined() && !all_finite(g.data(), g.numel())) {
            bad_grad = true;
            break;
          }
        }
        if (bad_loss) ++failures_.non_finite_losses;
        if (bad_grad) ++failures_.non_finite_grads;
        if (bad_loss || bad_grad) {
          skipped = true;
          ++failures_.skipped_steps;
          // The step never runs, but restore from the shadow anyway: the
          // rollback contract is "parameters exactly as at sequence
          // entry" regardless of what a backward pass may have touched.
          {
            NoGradGuard ng;
            const auto& params = optimizer_.params();
            for (std::size_t i = 0; i < params.size(); ++i) {
              const Tensor& s = shadow[i];
              Tensor dst = params[i].tensor;  // shared handle, same storage
              std::copy(s.data(), s.data() + s.numel(), dst.data());
            }
          }
          h = h_entry;
          if (++consecutive_failures_ >= config_.lr_halve_after_failures) {
            optimizer_.set_learning_rate(optimizer_.learning_rate() * 0.5f);
            ++failures_.lr_halvings;
            consecutive_failures_ = 0;
          }
        }
      }
      if (!skipped) {
        consecutive_failures_ = 0;
        if (config_.max_grad_norm > 0.0f)
          nn::clip_grad_norm(optimizer_.params(), config_.max_grad_norm);
        optimizer_.step();
      }
      executor_.verify_drained();
      // STGRAPH_VALIDATE: end-of-sequence audit — both protocol stacks
      // drained, and the graph's current position still satisfies every
      // structural invariant after the sequence's worth of repositioning.
      if (verify::validation_enabled()) {
        verify::Report r = verify::check_executor_drained(executor_);
        r.merge(verify::check_graph_at(graph_, seq_end - 1));
        verify::require_ok(r, "STGraphTrainer sequence ending at t=" +
                                  std::to_string(seq_end - 1));
      }
    }

    if (!skipped) {
      loss_total += seq_loss;
      steps += seq_end - seq_start;
      h = h.detach();  // truncate BPTT at the sequence boundary
    }

    if (training && config_.checkpoint_every_n_sequences > 0 &&
        (seq + 1) % config_.checkpoint_every_n_sequences == 0) {
      write_train_state(config_.checkpoint_path, seq + 1, loss_total, steps);
    }
    // Crash injection at the exact sequence boundary — after any
    // checkpoint, mirroring a kill between sequences.
    STG_FAILPOINT("trainer.sequence.end",
                  throw StgError("failpoint trainer.sequence.end fired after "
                                 "sequence " +
                                 std::to_string(seq)));
  }

  EpochStats stats;
  stats.loss = steps ? loss_total / static_cast<double>(steps) : 0.0;
  stats.seconds = epoch_timer.seconds();
  stats.graph_update_seconds = executor_.positioning_timer().total_seconds();
  stats.gnn_seconds = stats.seconds - stats.graph_update_seconds;
  if (auto* gpma = dynamic_cast<GpmaGraph*>(&graph_)) {
    stats.position_seconds = gpma->position_timer().total_seconds();
    stats.view_seconds = gpma->view_timer().total_seconds();
    stats.stall_seconds = gpma->stall_timer().total_seconds();
    stats.prefetch_hits = gpma->prefetch_hits();
    stats.prefetch_misses = gpma->prefetch_misses();
  }
  stats.forward_seconds = forward_timer.total_seconds();
  stats.backward_seconds = backward_timer.total_seconds();
  const ops::OpProfile prof = ops::profile_snapshot() - profile_entry;
  stats.tape_op_count = prof.tape_ops();
  stats.tape_bytes = prof.tape_bytes();
  stats.fused_op_count = prof.fused_ops();
  stats.fused_bytes = prof.fused_bytes();
  stats.failures = failures_;
  return stats;
}

EpochStats STGraphTrainer::train_epoch() {
  EpochStats stats = run_epoch(/*training=*/true);
  ++epoch_cursor_;
  return stats;
}

std::vector<EpochStats> STGraphTrainer::train() {
  std::vector<EpochStats> stats;
  if (config_.epochs > epoch_cursor_)
    stats.reserve(config_.epochs - epoch_cursor_);
  while (epoch_cursor_ < config_.epochs) stats.push_back(train_epoch());
  return stats;
}

double STGraphTrainer::evaluate() {
  NoGradGuard ng;
  return run_epoch(/*training=*/false).loss;
}

std::vector<Tensor> STGraphTrainer::evaluate_outputs() {
  NoGradGuard ng;
  executor_.set_inference_mode(true);
  const uint32_t T =
      std::min<uint32_t>(signal_.num_timestamps(), graph_.num_timestamps());
  const float* edge_weights =
      signal_.edge_weights.empty() ? nullptr : signal_.edge_weights.data();
  std::vector<Tensor> outputs;
  outputs.reserve(T);
  Tensor h;
  for (uint32_t t = 0; t < T; ++t) {
    executor_.begin_forward_step(t);
    const Tensor& x = signal_.features[t];
    if (!h.defined()) h = model_.initial_state(x.rows());
    auto [out, h_next] = model_.step(executor_, x, h, edge_weights);
    h = h_next;
    outputs.push_back(out);
  }
  executor_.set_inference_mode(false);
  return outputs;
}

}  // namespace stgraph::core
