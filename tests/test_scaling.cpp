// Multi-core / pipeline parity suite. The hard contract: pipelined
// multi-core training is an execution-schedule change only — losses and
// gradients must be bit-identical with the prefetch pipeline on or off and
// at any lane count. ctest re-runs this whole binary under
// STGRAPH_NUM_THREADS=1, under STGRAPH_NUM_THREADS=8 (a multi-lane pool on
// any host, so kernels walk the degree-sorted order) and under
// STGRAPH_PIPELINE=off (see tests/CMakeLists.txt), so the parity claims
// are checked across every schedule the runtime can pick.
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

struct TrainOutcome {
  std::vector<double> epoch_losses;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> grads;
};

TrainOutcome train_gpma(const DtdgEvents& ev, const TemporalSignal& signal,
                        const core::TrainConfig& cfg, bool pipeline,
                        uint64_t model_seed) {
  GpmaGraph g(ev);
  g.set_pipeline_enabled(pipeline);
  Rng rng(model_seed);
  nn::TGCNEncoder model(signal.feature_size(), 8, rng);
  core::STGraphTrainer trainer(g, model, signal, cfg);
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

    const TrainOutcome on = train_gpma(ev, signal, cfg, /*pipeline=*/true, 21);
    const TrainOutcome off =
        train_gpma(ev, signal, cfg, /*pipeline=*/false, 21);
    expect_bit_identical(on, off, "trial " + std::to_string(trial));
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

  const TrainOutcome on = train_gpma(ev, signal, cfg, /*pipeline=*/true, 33);
  const TrainOutcome off = train_gpma(ev, signal, cfg, /*pipeline=*/false, 33);
  expect_bit_identical(on, off, "pipeline on/off");
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
  if (!g.pipeline_enabled()) GTEST_SKIP() << "STGRAPH_PIPELINE=off";
  Rng rng(41);
  nn::TGCNEncoder model(signal.feature_size(), 8, rng);
  core::STGraphTrainer trainer(g, model, signal, cfg);
  const core::EpochStats stats = trainer.train_epoch();
  // The trainer hints every in-sequence step and the executor hints every
  // backward step: most Get-Graph calls must be served from a published
  // snapshot prepared off the critical path.
  EXPECT_GT(stats.prefetch_hits, 0u);
  EXPECT_GT(stats.prefetch_hits, stats.prefetch_misses);
  EXPECT_GT(stats.forward_seconds, 0.0);
  EXPECT_GT(stats.backward_seconds, 0.0);
  EXPECT_GE(stats.stall_seconds, 0.0);
}

TEST(ScalingPipeline, SerialScheduleReportsNoPrefetch) {
  DtdgEvents ev = window_edge_stream(50, random_stream(50, 800, 3), 6.0);
  DynamicLoadOptions o;
  o.feature_size = 4;
  o.link_samples_per_step = 16;
  TemporalSignal signal = make_dynamic_signal(ev, o);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 4;
  cfg.task = core::Task::kLinkPrediction;

  GpmaGraph g(ev);
  g.set_pipeline_enabled(false);
  Rng rng(51);
  nn::TGCNEncoder model(signal.feature_size(), 8, rng);
  core::STGraphTrainer trainer(g, model, signal, cfg);
  const core::EpochStats stats = trainer.train_epoch();
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_misses, 0u);
  EXPECT_EQ(stats.stall_seconds, 0.0);
}

}  // namespace
}  // namespace stgraph
