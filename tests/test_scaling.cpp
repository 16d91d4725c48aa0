// Multi-core / pipeline parity suite. The hard contract: pipelined
// multi-core training is an execution-schedule change only — losses and
// gradients must be bit-identical whether or not the trainer's prefetch
// hints reach the graph, and at any lane count. ctest re-runs this whole
// binary under STGRAPH_NUM_THREADS=1 and under STGRAPH_NUM_THREADS=8 (a
// multi-lane pool on any host, so kernels walk the degree-sorted order;
// see tests/CMakeLists.txt), so the parity claims are checked across every
// schedule the runtime can pick.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "gpma/gpma_graph.hpp"
#include "nn/models.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

using namespace datasets;

// ---------------------------------------------------------------------------
// End-to-end parity fuzz
// ---------------------------------------------------------------------------

EdgeList random_stream(uint32_t nodes, std::size_t events, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  for (std::size_t i = 0; i < events; ++i) {
    uint32_t s = static_cast<uint32_t>(rng.next_below(nodes));
    uint32_t d = static_cast<uint32_t>(rng.next_below(nodes));
    if (s == d) d = (d + 1) % nodes;
    stream.emplace_back(s, d);
  }
  return stream;
}

// Forwards every call to the wrapped graph except prefetch(), so a
// GpmaGraph behind it never sees a hint and builds every view inline: the
// serial schedule.
class HintlessGraph final : public STGraphBase {
 public:
  explicit HintlessGraph(STGraphBase& inner) : inner_(inner) {}

  uint32_t num_nodes() const override { return inner_.num_nodes(); }
  uint32_t num_edges_at(uint32_t t) const override {
    return inner_.num_edges_at(t);
  }
  uint32_t num_timestamps() const override { return inner_.num_timestamps(); }
  bool is_dynamic() const override { return inner_.is_dynamic(); }
  std::string format_name() const override { return inner_.format_name(); }
  SnapshotView get_graph(uint32_t t) override { return inner_.get_graph(t); }
  SnapshotView get_backward_graph(uint32_t t) override {
    return inner_.get_backward_graph(t);
  }
  std::size_t device_bytes() const override { return inner_.device_bytes(); }
  bool supports_append() const override { return inner_.supports_append(); }
  void append_delta(const EdgeDelta& delta) override {
    inner_.append_delta(delta);
  }
  void prefetch(uint32_t) override {}

 private:
  STGraphBase& inner_;
};

struct TrainOutcome {
  std::vector<double> epoch_losses;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> grads;
};

TrainOutcome train_gpma(const DtdgEvents& ev, const TemporalSignal& signal,
                        const core::TrainConfig& cfg, bool hinted,
                        uint64_t model_seed) {
  GpmaGraph g(ev);
  HintlessGraph hintless(g);
  STGraphBase& graph = hinted ? static_cast<STGraphBase&>(g) : hintless;
  Rng rng(model_seed);
  nn::TGCNEncoder model(signal.feature_size(), 8, rng);
  core::STGraphTrainer trainer(graph, model, signal, cfg);
  TrainOutcome out;
  for (uint32_t e = 0; e < cfg.epochs; ++e)
    out.epoch_losses.push_back(trainer.train_epoch().loss);
  for (const nn::Parameter& p : model.parameters()) {
    const Tensor& t = p.tensor;
    out.params.emplace_back(t.data(), t.data() + t.numel());
    const Tensor gr = t.grad();
    if (gr.defined())
      out.grads.emplace_back(gr.data(), gr.data() + gr.numel());
  }
  return out;
}

void expect_bit_identical(const TrainOutcome& a, const TrainOutcome& b,
                          const std::string& label) {
  ASSERT_EQ(a.epoch_losses.size(), b.epoch_losses.size()) << label;
  for (std::size_t e = 0; e < a.epoch_losses.size(); ++e) {
    // Bit-exact double compare: the loss is a deterministic reduction of
    // bit-identical kernel outputs.
    EXPECT_EQ(a.epoch_losses[e], b.epoch_losses[e])
        << label << " loss diverged at epoch " << e;
  }
  ASSERT_EQ(a.params.size(), b.params.size()) << label;
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    ASSERT_EQ(a.params[i].size(), b.params[i].size()) << label;
    EXPECT_EQ(std::memcmp(a.params[i].data(), b.params[i].data(),
                          a.params[i].size() * sizeof(float)),
              0)
        << label << " parameter " << i << " bytes diverged";
  }
  ASSERT_EQ(a.grads.size(), b.grads.size()) << label;
  for (std::size_t i = 0; i < a.grads.size(); ++i) {
    ASSERT_EQ(a.grads[i].size(), b.grads[i].size()) << label;
    EXPECT_EQ(std::memcmp(a.grads[i].data(), b.grads[i].data(),
                          a.grads[i].size() * sizeof(float)),
              0)
        << label << " gradient " << i << " bytes diverged";
  }
}

TEST(ScalingParity, PipelineNeverChangesTrainingFuzz) {
  Rng meta(2025);
  for (int trial = 0; trial < 3; ++trial) {
    const uint32_t nodes = 60 + static_cast<uint32_t>(meta.next_below(80));
    const std::size_t events = 1500 + meta.next_below(2000);
    const uint64_t seed = meta.next_below(1u << 20);
    DtdgEvents ev =
        window_edge_stream(nodes, random_stream(nodes, events, seed), 6.0);
    DynamicLoadOptions o;
    o.feature_size = 4;
    o.link_samples_per_step = 24;
    TemporalSignal signal = make_dynamic_signal(ev, o);
    core::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.sequence_length = 4;
    cfg.lr = 5e-3f;
    cfg.task = core::Task::kLinkPrediction;

    const TrainOutcome hinted =
        train_gpma(ev, signal, cfg, /*hinted=*/true, 21);
    const TrainOutcome serial =
        train_gpma(ev, signal, cfg, /*hinted=*/false, 21);
    expect_bit_identical(hinted, serial, "trial " + std::to_string(trial));
  }
}

TEST(ScalingParity, PipelineOffMatchesPipelineOnBitForBit) {
  DtdgEvents ev = window_edge_stream(100, random_stream(100, 3000, 77), 6.0);
  DynamicLoadOptions o;
  o.feature_size = 4;
  o.link_samples_per_step = 24;
  TemporalSignal signal = make_dynamic_signal(ev, o);
  core::TrainConfig cfg;
  cfg.epochs = 2;
  cfg.sequence_length = 4;
  cfg.lr = 5e-3f;
  cfg.task = core::Task::kLinkPrediction;

  const TrainOutcome hinted = train_gpma(ev, signal, cfg, /*hinted=*/true, 33);
  const TrainOutcome serial =
      train_gpma(ev, signal, cfg, /*hinted=*/false, 33);
  expect_bit_identical(hinted, serial, "hinted vs serial");
}

TEST(ScalingPipeline, PrefetchHitsDuringTraining) {
  DtdgEvents ev = window_edge_stream(80, random_stream(80, 2000, 13), 6.0);
  DynamicLoadOptions o;
  o.feature_size = 4;
  o.link_samples_per_step = 16;
  TemporalSignal signal = make_dynamic_signal(ev, o);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 6;
  cfg.lr = 5e-3f;
  cfg.task = core::Task::kLinkPrediction;

  GpmaGraph g(ev);
  Rng rng(41);
  nn::TGCNEncoder model(signal.feature_size(), 8, rng);
  core::STGraphTrainer trainer(g, model, signal, cfg);
  const core::EpochStats stats = trainer.train_epoch();
  // The trainer hints every in-sequence step and the executor hints every
  // backward step: most Get-Graph calls must be served from a view buffer
  // prepared off the critical path.
  EXPECT_GT(stats.prefetch_hits, 0u);
  EXPECT_GT(stats.prefetch_hits, stats.prefetch_misses);
  EXPECT_GT(stats.forward_seconds, 0.0);
  EXPECT_GT(stats.backward_seconds, 0.0);
  EXPECT_GE(stats.stall_seconds, 0.0);
}

}  // namespace
}  // namespace stgraph
