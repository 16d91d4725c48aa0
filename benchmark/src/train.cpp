// train-static and train-dtdg: STGraphTrainer::train_epoch on a synthetic
// static-temporal graph and on a GPMA-backed DTDG.
//
// Untraced run: three identical set-ups (replicas) train at once, each on a
// CPU of its own, until --seconds have passed. The calls the trainer makes
// into the graph cut each epoch into short intervals; op_ms is the sum over
// the intervals of the shortest time any epoch of any replica took for it.
// The replicas' set-ups and rounds of three set-ups at once, half of them
// before the epochs and half after, time set-up the same way: setup_s is
// the shortest preparation plus the sum of the warm-up epochs' shortest
// intervals.
//
// Traced run: two identical set-ups from the same seed, one plain and one
// behind the decorators, trained in alternating epochs so that machine
// drift hits both alike. The plain side gives the tracing overhead and the
// bit-exact reference loss; the traced side gives the per-layer split.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/static_graph.hpp"
#include "micro.hpp"
#include "runtime/memory_tracker.hpp"
#include "runtime/parallel.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace stgbench {
namespace {

using namespace stgraph;

/// Timed set-up rounds per untraced run: with the replicas' own set-ups,
/// 21 samples of each warm-up interval.
constexpr int kSetupRounds = 6;
/// Replicas trained at once in an untraced run, one per CPU. On a shared
/// virtual machine each vCPU runs at full or reduced speed (down to 1/1.5)
/// in phases of its own lasting seconds to minutes; the fastest epoch of a
/// single trainer moved 25% from run to run (quartile spread over six
/// 20-s runs), the fastest of three replicas 4%.
constexpr unsigned kReplicas = 3;

struct TrainShape {
  bool dynamic = false;
  double scale = 1.0;
  int64_t features = 16;
  int64_t hidden = 32;
  /// Static signal length: six sequences, so each replica trains about 20
  /// epochs in a 20-s run.
  uint32_t timestamps = 48;
  double churn_pct = 5.0;     ///< DTDG windowing
  uint32_t sequence_length = 8;
};

TrainShape shape_for(const Options& opts) {
  TrainShape s;
  if (opts.workload == "train-static") {
    if (opts.smoke) {
      s.scale = 0.1;
      s.features = 8;
      s.hidden = 8;
      s.timestamps = 24;
    }
  } else {
    s.dynamic = true;
    s.scale = opts.smoke ? 0.005 : 0.02;
    s.features = 8;
    s.hidden = 8;
  }
  return s;
}

/// Forwards to the wrapped graph and notes when the trainer calls it. The
/// calls (get_graph, prefetch, get_backward_graph) cut an epoch into
/// intervals that hold the same work in every epoch: one timestep's
/// forward step and loss, or its backward step. A trainer makes these
/// calls from the thread that runs train_epoch().
class EpochClock final : public STGraphBase {
 public:
  explicit EpochClock(STGraphBase& inner) : inner_(inner) {}

  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  uint32_t num_edges_at(uint32_t t) const override {
    return inner_.num_edges_at(t);
  }
  uint32_t num_timestamps() const override { return inner_.num_timestamps(); }
  bool is_dynamic() const override { return inner_.is_dynamic(); }
  std::string format_name() const override { return inner_.format_name(); }
  std::size_t device_bytes() const override { return inner_.device_bytes(); }
  bool supports_append() const override { return inner_.supports_append(); }

  SnapshotView get_graph(uint32_t t) override {
    mark();
    return inner_.get_graph(t);
  }
  SnapshotView get_backward_graph(uint32_t t) override {
    mark();
    return inner_.get_backward_graph(t);
  }
  void prefetch(uint32_t t) override {
    mark();
    inner_.prefetch(t);
  }

  /// Runs one epoch; returns its loss and the lengths of its intervals in
  /// order, from the epoch's start to its end (they sum to the epoch).
  double timed_epoch(core::STGraphTrainer& trainer,
                     std::vector<int64_t>& intervals) {
    marks_.clear();
    mark();
    const double loss = trainer.train_epoch().loss;
    mark();
    intervals.resize(marks_.size() - 1);
    for (std::size_t k = 0; k + 1 < marks_.size(); ++k)
      intervals[k] = marks_[k + 1] - marks_[k];
    return loss;
  }

 private:
  void mark() { marks_.push_back(now_ns()); }

  STGraphBase& inner_;
  std::vector<int64_t> marks_;
};

/// The shortest time seen for each interval of an epoch over repeated
/// epochs of the same work. Their sum is the epoch as it runs when the
/// host leaves each part alone: a vCPU of a shared virtual machine runs
/// vector code at full or reduced speed in phases from tens of
/// milliseconds to minutes, so a whole epoch seldom runs at full speed
/// throughout, while a 5-ms interval often does.
struct IntervalFloor {
  std::vector<int64_t> best;
  uint64_t epochs = 0;
  /// Epochs cut into another number of intervals than the first; left out.
  uint64_t mismatched = 0;

  void add(const std::vector<int64_t>& intervals) {
    if (epochs == 0) {
      best = intervals;
    } else if (intervals.size() != best.size()) {
      ++mismatched;
      return;
    } else {
      for (std::size_t k = 0; k < best.size(); ++k)
        best[k] = std::min(best[k], intervals[k]);
    }
    ++epochs;
  }
  double seconds() const {
    int64_t sum = 0;
    for (int64_t v : best) sum += v;
    return static_cast<double>(sum) * 1e-9;
  }
};

/// One complete set-up: inputs synthesized from the seed, the graph, the
/// model, the trainer, and its warm-up epoch. Members are declared in
/// dependency order so the trainer is destroyed first.
struct Instance {
  datasets::TemporalSignal signal;
  std::unique_ptr<STGraphBase> graph;
  std::unique_ptr<nn::TemporalModel> model;
  std::unique_ptr<EpochClock> clock;  ///< untraced set-ups
  std::unique_ptr<trace::TracedGraph> traced_graph;
  std::unique_ptr<trace::TracedModel> traced_model;
  std::unique_ptr<core::STGraphTrainer> trainer;
  double warmup_loss = 0;
  uint32_t sequences_per_epoch = 0;
  /// Untraced set-ups: seconds until the warm-up epoch, and that epoch's
  /// intervals.
  double prepare_s = 0;
  std::vector<int64_t> warmup_intervals;
};

std::unique_ptr<Instance> set_up(const TrainShape& s, uint64_t seed,
                                 bool traced) {
  const int64_t t0 = now_ns();
  auto in = std::make_unique<Instance>();
  uint32_t graph_t = 0;
  if (!s.dynamic) {
    datasets::StaticLoadOptions o;
    o.feature_size = s.features;
    o.num_timestamps = s.timestamps;
    o.seed = seed;
    o.scale = s.scale;
    datasets::StaticTemporalDataset ds = datasets::load_wikimath(o);
    in->graph = std::make_unique<StaticTemporalGraph>(ds.num_nodes, ds.edges,
                                                      ds.num_timestamps);
    in->signal = std::move(ds.signal);
  } else {
    datasets::DynamicLoadOptions o;
    o.feature_size = s.features;
    o.seed = seed;
    o.scale = s.scale;
    const DtdgEvents events =
        datasets::make_dtdg(datasets::load_sx_stackoverflow(o), s.churn_pct);
    in->signal = datasets::make_dynamic_signal(events, o);
    in->graph = std::make_unique<GpmaGraph>(events);
  }
  graph_t = in->graph->num_timestamps();

  Rng rng(seed ^ 0x6d6f64656cULL);
  if (s.dynamic)
    in->model = std::make_unique<nn::TGCNEncoder>(s.features, s.hidden, rng);
  else
    in->model = std::make_unique<nn::TGCNRegressor>(s.features, s.hidden, rng);

  STGraphBase* graph = in->graph.get();
  nn::TemporalModel* model = in->model.get();
  if (traced) {
    in->traced_graph = std::make_unique<trace::TracedGraph>(*graph);
    in->traced_model =
        std::make_unique<trace::TracedModel>(*model, in->traced_graph.get());
    graph = in->traced_graph.get();
    model = in->traced_model.get();
  } else {
    in->clock = std::make_unique<EpochClock>(*graph);
    graph = in->clock.get();
  }
  core::TrainConfig cfg;
  cfg.sequence_length = s.sequence_length;
  cfg.task = s.dynamic ? core::Task::kLinkPrediction
                       : core::Task::kNodeRegression;
  cfg.seed = seed;
  in->trainer =
      std::make_unique<core::STGraphTrainer>(*graph, *model, in->signal, cfg);
  const uint32_t T = std::min(in->signal.num_timestamps(), graph_t);
  in->sequences_per_epoch =
      (T + s.sequence_length - 1) / s.sequence_length;
  if (traced) {
    in->warmup_loss = in->trainer->train_epoch().loss;
    in->traced_model->end_sequence();
  } else {
    in->prepare_s = static_cast<double>(now_ns() - t0) * 1e-9;
    in->warmup_loss =
        in->clock->timed_epoch(*in->trainer, in->warmup_intervals);
  }
  return in;
}

std::string hex_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Checks common to both run kinds: finite losses that fall, no step
/// skipped by the numerical guards.
void check_training(const Options& opts, Result& result, double first_loss,
                    std::vector<double> losses, uint64_t skipped) {
  if (breaking(opts, "loss_finite")) losses.back() = std::nan("");
  if (breaking(opts, "loss_decreases")) losses.back() = first_loss + 1;
  if (breaking(opts, "no_skipped_steps")) ++skipped;
  bool finite = std::isfinite(first_loss);
  for (double l : losses) finite = finite && std::isfinite(l);
  result.check("loss_finite", finite, "every epoch loss is finite");
  std::ostringstream d;
  d << "first epoch " << first_loss << ", last epoch " << losses.back();
  result.check("loss_decreases", losses.back() < first_loss, d.str());
  result.check("no_skipped_steps", skipped == 0,
               std::to_string(skipped) + " optimizer steps skipped");
}

/// Timed set-ups: each one's preparation before the warm-up epoch
/// (synthesis, graph, model, trainer), and the warm-up epochs' floor.
struct SetupTimes {
  std::vector<double> prepare_s;
  IntervalFloor warmup;

  void add(const Instance& in) {
    prepare_s.push_back(in.prepare_s);
    warmup.add(in.warmup_intervals);
  }
  double seconds() const {
    return *std::min_element(prepare_s.begin(), prepare_s.end()) +
           warmup.seconds();
  }
};

/// One round of set-ups, timed and then dropped: `count` set-ups at once,
/// each on a thread of its own.
void race_set_ups(const TrainShape& shape, uint64_t seed, std::size_t count,
                  SetupTimes& times) {
  std::vector<std::unique_ptr<Instance>> done(count);
  std::vector<std::exception_ptr> errors(count);
  {
    JoinAll threads;
    for (std::size_t i = 0; i < count; ++i)
      threads.threads.emplace_back([&, i] {
        try {
          done[i] = set_up(shape, seed, /*traced=*/false);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  for (const std::unique_ptr<Instance>& in : done) times.add(*in);
}

void run_untraced(const Options& opts, const TrainShape& shape,
                  Result& result) {
  const std::vector<int> cpus = allowed_cpus();
  const std::size_t replica_count =
      std::min<std::size_t>(kReplicas, cpus.size());
  // The replicas are set up one at a time on this thread: replicas set up
  // on short-lived threads of their own had their fastest epoch 3-12%
  // slower. The first runs alone, so the memory peak after it is one
  // trainer's, warm-up epoch included.
  std::vector<std::unique_ptr<Instance>> replicas;
  replicas.push_back(set_up(shape, opts.seed, /*traced=*/false));
  const double peak_bytes =
      static_cast<double>(MemoryTracker::instance().peak_bytes());
  // Set-up rounds before and after the measured epochs, so that they see
  // the same stretch of time as the epochs. The replicas' own set-ups are
  // timed too.
  SetupTimes setup;
  for (int round = 0; round < kSetupRounds / 2; ++round)
    race_set_ups(shape, opts.seed, replica_count, setup);
  while (replicas.size() < replica_count)
    replicas.push_back(set_up(shape, opts.seed, /*traced=*/false));
  for (const std::unique_ptr<Instance>& in : replicas) setup.add(*in);

  struct Log {
    std::vector<double> epoch_s, losses;
    std::vector<std::vector<int64_t>> intervals;
    uint64_t skipped = 0;
    std::exception_ptr error;
  };
  std::vector<Log> logs(replicas.size());
  const int64_t start = now_ns();
  const int64_t budget = static_cast<int64_t>(opts.seconds * 1e9);
  {
    JoinAll threads;
    for (std::size_t r = 0; r < replicas.size(); ++r)
      threads.threads.emplace_back([&, r] {
        pin_to_cpu(cpus[r]);
        Instance& in = *replicas[r];
        Log& log = logs[r];
        try {
          const uint64_t skipped0 = in.trainer->failure_stats().skipped_steps;
          while (log.epoch_s.size() < 3 || now_ns() - start < budget) {
            const int64_t t0 = now_ns();
            log.intervals.emplace_back();
            log.losses.push_back(
                in.clock->timed_epoch(*in.trainer, log.intervals.back()));
            log.epoch_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
          }
          log.skipped = in.trainer->failure_stats().skipped_steps - skipped0;
        } catch (...) {
          log.error = std::current_exception();
        }
      });
  }
  for (const Log& log : logs)
    if (log.error) std::rethrow_exception(log.error);
  const double warmup_loss = replicas[0]->warmup_loss;
  const uint32_t sequences_per_epoch = replicas[0]->sequences_per_epoch;
  replicas.clear();
  for (int round = kSetupRounds / 2; round < kSetupRounds; ++round)
    race_set_ups(shape, opts.seed, replica_count, setup);

  std::vector<double> epoch_s;
  IntervalFloor floor;
  uint64_t skipped = 0;
  for (const Log& log : logs) {
    epoch_s.insert(epoch_s.end(), log.epoch_s.begin(), log.epoch_s.end());
    for (const std::vector<int64_t>& iv : log.intervals) floor.add(iv);
    skipped += log.skipped;
  }
  result.attempted = epoch_s.size() * sequences_per_epoch;
  result.failed = skipped;
  result.set("setup_s", setup.seconds());
  result.set("peak_mem_mib", peak_bytes / (1024.0 * 1024.0));
  result.set("op_ms", floor.seconds() * 1e3);
  result.detail("epoch_min_s",
                *std::min_element(epoch_s.begin(), epoch_s.end()));
  result.detail("intervals", static_cast<double>(floor.best.size()));
  result.detail("intervals_mismatched",
                static_cast<double>(floor.mismatched) +
                    static_cast<double>(setup.warmup.mismatched));
  const Quartiles q = quartiles(epoch_s);
  result.detail("epoch_s", q.median);
  result.detail("epoch_q1_s", q.q1);
  result.detail("epoch_q3_s", q.q3);
  result.detail("epochs", static_cast<double>(epoch_s.size()));
  result.detail("replicas", static_cast<double>(logs.size()));
  result.detail("error_frac", static_cast<double>(skipped) /
                                  static_cast<double>(result.attempted));
  const std::vector<double>& losses = logs[0].losses;
  result.note("final_loss", hex_double(losses.back()));
  check_training(opts, result, warmup_loss, losses, skipped);

  // Replicas start from the same seed and the library is deterministic, so
  // every epoch's loss must match bit for bit across them: training side by
  // side shares nothing that changes results.
  std::size_t compared = 0, mismatched = 0;
  for (std::size_t i = 0;; ++i) {
    if (!std::all_of(logs.begin(), logs.end(),
                     [i](const Log& l) { return i < l.losses.size(); }))
      break;
    double first = logs[0].losses[i];
    if (i == 0 && breaking(opts, "replicas_bitwise"))
      first = std::nextafter(first, 1e300);
    ++compared;
    for (const Log& log : logs)
      mismatched += std::memcmp(&first, &log.losses[i], sizeof first) != 0;
  }
  result.check("replicas_bitwise", mismatched == 0,
               std::to_string(logs.size()) + " replicas, " +
                   std::to_string(compared) + " epochs compared, " +
                   std::to_string(mismatched) + " losses differ");
}

/// Library counters read around each traced epoch; the plain side's epochs
/// run in between, so process-wide counters are diffed per epoch.
struct Sample {
  ops::OpProfile ops;
  uint64_t launches = 0;

  static Sample now() {
    return {ops::profile_snapshot(),
            device::KernelStats::instance().launches.load()};
  }
};

void run_traced(const Options& opts, const TrainShape& shape, Result& result) {
  std::unique_ptr<Instance> plain = set_up(shape, opts.seed, false);
  std::unique_ptr<Instance> traced = set_up(shape, opts.seed, true);
  trace::TracedGraph& tg = *traced->traced_graph;
  trace::TracedModel& tm = *traced->traced_model;
  auto* gpma = dynamic_cast<GpmaGraph*>(traced->graph.get());

  // Decorator and GPMA totals after set-up; the measured share is the
  // difference at the end.
  const double g0 = tg.get_graph_stat.seconds();
  const double gb0 = tg.get_backward_stat.seconds();
  const double p0 = tg.prefetch_stat.seconds();
  const double pb0 = tg.prefetch_bwd_stat.seconds();
  const double s0 = tm.step_stat.seconds();
  const ops::OpProfile step_ops0 = tm.ops_in_step;
  const ops::OpProfile loss_ops0 = tm.ops_fwd_loss;
  double replay0 = 0, view0 = 0, stall0 = 0;
  uint64_t hits0 = 0, misses0 = 0, incr0 = 0, full0 = 0;
  if (gpma) {
    replay0 = gpma->position_timer().total_seconds();
    view0 = gpma->view_timer().total_seconds();
    stall0 = gpma->stall_timer().total_seconds();
    hits0 = gpma->prefetch_hits();
    misses0 = gpma->prefetch_misses();
    incr0 = gpma->incremental_view_updates();
    full0 = gpma->full_view_rebuilds();
  }

  std::vector<double> plain_s, traced_s, plain_loss, traced_loss;
  double wall = 0, trainer_s = 0, fwd = 0, bwd = 0;
  ops::OpProfile epoch_ops;
  uint64_t launches = 0;
  auto plain_epoch = [&] {
    const int64_t t0 = now_ns();
    plain_loss.push_back(plain->trainer->train_epoch().loss);
    plain_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  auto traced_epoch = [&] {
    const Sample before = Sample::now();
    core::EpochStats st;
    const int64_t t0 = now_ns();
    {
      trace::Span span("epoch");
      st = traced->trainer->train_epoch();
    }
    const double w = static_cast<double>(now_ns() - t0) * 1e-9;
    tm.end_sequence();
    const Sample after = Sample::now();
    traced_s.push_back(w);
    traced_loss.push_back(st.loss);
    wall += w;
    trainer_s += st.seconds;
    fwd += st.forward_seconds;
    bwd += st.backward_seconds;
    epoch_ops = trace::add(epoch_ops, after.ops - before.ops);
    launches += after.launches - before.launches;
  };
  trace::arm(true);
  const int64_t start = now_ns();
  const int64_t budget = static_cast<int64_t>(opts.seconds * 1e9);
  // Pairs alternate which side runs first, so neither always inherits the
  // other's cache state.
  while (traced_s.size() < 3 || now_ns() - start < budget) {
    if (traced_s.size() % 2) {
      traced_epoch();
      plain_epoch();
    } else {
      plain_epoch();
      traced_epoch();
    }
  }
  trace::arm(false);

  const double E = static_cast<double>(traced_s.size());
  const double G = tg.get_graph_stat.seconds() - g0;
  const double GB = tg.get_backward_stat.seconds() - gb0;
  const double P = tg.prefetch_stat.seconds() - p0;
  const double PB = tg.prefetch_bwd_stat.seconds() - pb0;
  const double S = tm.step_stat.seconds() - s0;
  const ops::OpProfile in_step = tm.ops_in_step - step_ops0;
  const ops::OpProfile fwd_loss = tm.ops_fwd_loss - loss_ops0;
  // Ops outside step() and the forward loss are the backward pass's. The
  // partition sums exactly: see README.md. (In doubles: the estimated last
  // loss of a sequence may exceed a class's true share by a few ns.)
  const double ops_in_step = trace::timed_op_seconds(in_step);
  const double ops_loss = trace::timed_op_seconds(fwd_loss);
  const double ops_bwd =
      trace::timed_op_seconds(epoch_ops) - ops_in_step - ops_loss;
  const double step_resid = S - ops_in_step;
  const double fwd_resid = fwd - G - (P - PB) - S - ops_loss;
  const double bwd_resid = bwd - GB - PB - ops_bwd;
  const double other = trainer_s - fwd - bwd;
  const double parts = G + P + ops_in_step + step_resid + ops_loss +
                       fwd_resid + GB + ops_bwd + bwd_resid + other;
  using ops::OpClass;
  auto per_epoch = [E](double v) { return v / E; };

  result.set("gpma.get_graph_s", per_epoch(G));
  result.set("gpma.get_backward_graph_s", per_epoch(GB));
  result.set("gpma.prefetch_s", per_epoch(P));
  if (gpma) {
    result.set("gpma.replay_s",
               per_epoch(gpma->position_timer().total_seconds() - replay0));
    result.set("gpma.view_s",
               per_epoch(gpma->view_timer().total_seconds() - view0));
    result.set("gpma.stall_s",
               per_epoch(gpma->stall_timer().total_seconds() - stall0));
    result.set("gpma.prefetch_hits",
               per_epoch(static_cast<double>(gpma->prefetch_hits() - hits0)));
    result.set("gpma.prefetch_misses",
               per_epoch(static_cast<double>(gpma->prefetch_misses() - misses0)));
    result.set("gpma.incremental_views",
               per_epoch(static_cast<double>(
                   gpma->incremental_view_updates() - incr0)));
    result.set("gpma.full_rebuilds",
               per_epoch(static_cast<double>(gpma->full_view_rebuilds() - full0)));
  }
  result.set("graph.device_mib",
             static_cast<double>(traced->graph->device_bytes()) /
                 (1024.0 * 1024.0));
  result.set("nn.step_s", per_epoch(S));
  result.set("tensor.matmul_s",
             per_epoch(trace::op_seconds(epoch_ops, OpClass::kMatmul)));
  result.set("tensor.matmul_fwd_s",
             per_epoch(trace::op_seconds(in_step, OpClass::kMatmul)));
  result.set("tensor.matmul_bwd_s",
             per_epoch(trace::op_seconds(epoch_ops, OpClass::kMatmul) -
                       trace::op_seconds(in_step, OpClass::kMatmul) -
                       trace::op_seconds(fwd_loss, OpClass::kMatmul)));
  auto count = [&](OpClass c) {
    return per_epoch(static_cast<double>(epoch_ops.count[static_cast<int>(c)]));
  };
  result.set("tensor.matmul_calls", count(OpClass::kMatmul));
  result.set("tensor.elementwise_s",
             per_epoch(trace::op_seconds(epoch_ops, OpClass::kElementwise) +
                       trace::op_seconds(epoch_ops, OpClass::kActivation)));
  result.set("tensor.reduction_s",
             per_epoch(trace::op_seconds(epoch_ops, OpClass::kReduction)));
  result.set("tensor.shape_calls", count(OpClass::kShape));
  result.set("compiler.fused_s",
             per_epoch(trace::op_seconds(epoch_ops, OpClass::kFused)));
  result.set("compiler.fused_calls", count(OpClass::kFused));
  result.set("compiler.fused_mib",
             per_epoch(static_cast<double>(epoch_ops.fused_bytes()) /
                       (1024.0 * 1024.0)));
  result.set("compiler.step_resid_s", per_epoch(step_resid));
  result.set("trainer.fwd_resid_s", per_epoch(fwd_resid));
  result.set("autograd.backward_s", per_epoch(bwd));
  result.set("autograd.bwd_resid_s", per_epoch(bwd_resid));
  result.set("trainer.other_s", per_epoch(other));
  result.set("runtime.launches", per_epoch(static_cast<double>(launches)));
  result.set("trace.residual_frac",
             (step_resid + fwd_resid + bwd_resid + other) / wall);
  std::vector<double> pair_ratio;
  for (std::size_t i = 0; i < traced_s.size(); ++i)
    pair_ratio.push_back(traced_s[i] / plain_s[i]);
  result.set("trace.overhead_frac", median(pair_ratio) - 1);
  set_kernel_metrics(result, measure_kernels(*plain->graph, shape.features,
                                             shape.hidden, opts.seed,
                                             opts.smoke ? 0.02 : 0.2));

  result.attempted = traced_s.size() * traced->sequences_per_epoch;
  result.failed = traced->trainer->failure_stats().skipped_steps +
                  plain->trainer->failure_stats().skipped_steps;
  result.detail("epochs", E);
  result.detail("epoch_s", median(traced_s));
  result.detail("plain_epoch_s", median(plain_s));
  result.detail("attributed_s", per_epoch(parts));
  result.detail("fwd_loss_ops_s", per_epoch(ops_loss));
  result.detail("bwd_ops_s", per_epoch(ops_bwd));
  result.detail("wall_s", per_epoch(wall));
  result.note("final_loss", hex_double(traced_loss.back()));
  result.note("plain_final_loss", hex_double(plain_loss.back()));

  check_training(opts, result, traced->warmup_loss, traced_loss,
                 result.failed);
  double a = plain_loss.back(), b = traced_loss.back();
  if (breaking(opts, "traced_loss_bitwise")) b = std::nextafter(b, 1e300);
  result.check("traced_loss_bitwise", std::memcmp(&a, &b, sizeof a) == 0,
               "plain " + hex_double(a) + " vs traced " + hex_double(b));
  // The parts sum to the trainer's clock by construction; what can fail is
  // agreement with the benchmark's own clock, and a negative residual,
  // which would mean a span was counted twice.
  double sum = parts;
  if (breaking(opts, "attribution_sums")) sum *= 1.05;
  const double min_resid = std::min({step_resid, fwd_resid, bwd_resid, other});
  std::ostringstream d;
  d << "parts " << sum << " s vs epoch wall " << wall
    << " s; smallest residual " << min_resid << " s";
  result.check("attribution_sums",
               std::fabs(sum - wall) <= 0.01 * wall && min_resid >= -0.01 * wall,
               d.str());
}

}  // namespace

void run_train(const Options& opts, Result& result) {
  const TrainShape shape = shape_for(opts);
  if (opts.trace)
    run_traced(opts, shape, result);
  else
    run_untraced(opts, shape, result);
}

}  // namespace stgbench
