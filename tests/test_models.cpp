// Tests for the extended layer APIs (ChebConvLite, GConvGRU) and model
// composition — the paper's §V-A1 claim that new temporal models are
// built by swapping building blocks.
#include <gtest/gtest.h>

#include <set>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "graph/static_graph.hpp"
#include "nn/gconv_gru.hpp"
#include "nn/models.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

EdgeList random_edges(uint32_t n, int count, uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (int i = 0; i < count * 4 && static_cast<int>(edges.size()) < count; ++i) {
    uint32_t s = rng.next_below(n), d = rng.next_below(n);
    if (s == d || !seen.insert({s, d}).second) continue;
    edges.emplace_back(s, d);
  }
  return edges;
}

TEST(ChebConvLite, OrderOneIsPureLinear) {
  Rng rng(1);
  const uint32_t n = 10;
  nn::ChebConvLite conv(3, 4, /*k=*/1, rng);
  StaticTemporalGraph graph(n, random_edges(n, 30, 2), 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  NoGradGuard ng;
  Tensor x = Tensor::randn({n, 3}, rng);
  Tensor y = conv.forward(exec, x);
  EXPECT_EQ(y.shape(), (Shape{n, 4}));
  // K=1 ignores the graph entirely: permuting edges must not matter.
  StaticTemporalGraph other(n, random_edges(n, 30, 99), 1);
  core::TemporalExecutor exec2(other);
  exec2.begin_forward_step(0);
  Tensor y2 = conv.forward(exec2, x);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y.at(i), y2.at(i));
}

TEST(ChebConvLite, OrderTwoUsesTheGraph) {
  Rng rng(3);
  const uint32_t n = 10;
  nn::ChebConvLite conv(3, 4, /*k=*/2, rng);
  StaticTemporalGraph g1(n, random_edges(n, 30, 4), 1);
  StaticTemporalGraph g2(n, random_edges(n, 30, 77), 1);
  core::TemporalExecutor e1(g1), e2(g2);
  e1.begin_forward_step(0);
  e2.begin_forward_step(0);
  NoGradGuard ng;
  Tensor x = Tensor::randn({n, 3}, rng);
  Tensor y1 = conv.forward(e1, x);
  Tensor y2 = conv.forward(e2, x);
  bool any_diff = false;
  for (int64_t i = 0; i < y1.numel(); ++i)
    any_diff = any_diff || std::abs(y1.at(i) - y2.at(i)) > 1e-6f;
  EXPECT_TRUE(any_diff);
}

TEST(ChebConvLite, RejectsUnsupportedOrder) {
  Rng rng(5);
  EXPECT_THROW(nn::ChebConvLite(3, 4, 3, rng), StgError);
  EXPECT_THROW(nn::ChebConvLite(3, 4, 0, rng), StgError);
}

class GConvGruOrder : public ::testing::TestWithParam<int> {};

TEST_P(GConvGruOrder, CellStepShapesAndGrads) {
  const int k = GetParam();
  Rng rng(7);
  const uint32_t n = 12;
  nn::GConvGRU gru(3, 5, k, rng);
  StaticTemporalGraph graph(n, random_edges(n, 40, 8), 3);
  core::TemporalExecutor exec(graph);

  Tensor x = Tensor::randn({n, 3}, rng, 1.0f, /*requires_grad=*/true);
  exec.begin_forward_step(0);
  Tensor h = gru.forward(exec, x, Tensor());
  EXPECT_EQ(h.shape(), (Shape{n, 5}));
  // Hidden values live in (-1, 1): convex blend of 0-state and tanh.
  for (int64_t i = 0; i < h.numel(); ++i) {
    EXPECT_GT(h.at(i), -1.0f);
    EXPECT_LT(h.at(i), 1.0f);
  }
  ops::sum(h).backward();
  EXPECT_TRUE(x.grad().defined());
  for (const auto& p : gru.parameters()) {
    EXPECT_TRUE(p.tensor.grad().defined()) << p.name;
  }
  exec.verify_drained();
}

INSTANTIATE_TEST_SUITE_P(Orders, GConvGruOrder, ::testing::Values(1, 2));

TEST(GConvGru, TrainsOnStaticTemporalData) {
  datasets::StaticLoadOptions o;
  o.num_timestamps = 20;
  o.feature_size = 4;
  auto ds = datasets::load_chickenpox(o);
  StaticTemporalGraph graph(ds.num_nodes, ds.edges, ds.num_timestamps);
  Rng rng(11);
  nn::GConvGRURegressor model(o.feature_size, 8, /*k=*/2, rng);
  core::TrainConfig cfg;
  cfg.epochs = 6;
  cfg.sequence_length = 5;
  cfg.task = core::Task::kNodeRegression;
  core::STGraphTrainer trainer(graph, model, ds.signal, cfg);
  auto stats = trainer.train();
  EXPECT_LT(stats.back().loss, stats.front().loss);
}

TEST(GConvGru, ParameterCountMatchesFormula) {
  Rng rng(13);
  nn::GConvGRU gru(4, 8, /*k=*/2, rng);
  // Per gate: x-conv (4·8 lin + 8 bias + 4·8 hop) + h-conv (8·8 lin + 8·8
  // hop, no bias). Three gates.
  const int64_t per_gate = (4 * 8 + 8 + 4 * 8) + (8 * 8 + 8 * 8);
  EXPECT_EQ(gru.parameter_count(), 3 * per_gate);
}

TEST(Module, NamedModulesReportsDottedPaths) {
  Rng rng(13);
  nn::TGCNRegressor model(4, 8, rng);
  const auto mods = model.named_modules();
  ASSERT_FALSE(mods.empty());
  EXPECT_EQ(mods.front().first, "");  // pre-order: the root itself first
  EXPECT_EQ(mods.front().second, &model);
  bool saw_nested = false;
  for (const auto& [path, m] : mods)
    saw_nested |= path.find('.') != std::string::npos;
  EXPECT_TRUE(saw_nested) << "TGCNRegressor has grandchildren (tgcn.conv_*)";
}

}  // namespace
}  // namespace stgraph
