// Layer tests: numerical equivalence between STGraph's fused
// SeastarGCNConv and the baseline edge-parallel PygGCNConv (forward AND
// gradients), finite-difference gradient checks of SeastarGCNConv in both
// multiplication orders and of the TGCN (through its shared Â·X),
// GConvGRU, GConvLSTM and A3TGCN cells, the
// aggregation launch counts of a TGCN step and of each order, Linear,
// optimizers, and module plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <set>

#include "baseline/pyg_layers.hpp"
#include "core/backend.hpp"
#include "core/executor.hpp"
#include "gpma/gpma_graph.hpp"
#include "graph/dtdg.hpp"
#include "graph/static_graph.hpp"
#include "nn/a3tgcn.hpp"
#include "nn/gcn.hpp"
#include "nn/gconv_gru.hpp"
#include "nn/gconv_lstm.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/optim.hpp"
#include "nn/tgcn.hpp"
#include "runtime/parallel.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

// Device launches made inside aggregation kernels. Every layer in this
// binary reaches the kernel engine through core::native_backend(); the
// stand-in registered below under the same name before main() runs the
// same compiler::run_kernel call and tallies the device::KernelStats
// launches it makes, so tests can count aggregation launches apart from
// GEMM and elementwise ones.
std::atomic<uint64_t> g_aggregation_launches{0};

class CountingBackend final : public core::Backend {
 public:
  std::string name() const override { return "native"; }
  Tensor tensor_from_host(const std::vector<float>& values,
                          Shape shape) const override {
    return Tensor::from_vector(values, std::move(shape));
  }
  Tensor zeros(Shape shape) const override {
    return Tensor::zeros(std::move(shape));
  }
  void launch_aggregation(const compiler::KernelSpec& spec,
                          const compiler::KernelArgs& args) const override {
    auto& launches = device::KernelStats::instance().launches;
    const uint64_t before = launches.load();
    compiler::run_kernel(spec, args);
    g_aggregation_launches += launches.load() - before;
  }
};

const bool g_counting_backend_registered = [] {
  core::BackendRegistry::instance().register_backend(
      "native", [] { return std::make_unique<CountingBackend>(); });
  return true;
}();

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

void expect_close(const Tensor& a, const Tensor& b, float tol = 1e-4f,
                  const char* what = "") {
  ASSERT_TRUE(same_shape(a, b)) << what;
  for (int64_t i = 0; i < a.numel(); ++i)
    ASSERT_NEAR(a.at(i), b.at(i), tol) << what << " entry " << i;
}

TEST(Linear, ForwardMatchesManualGemm) {
  Rng rng(1);
  nn::Linear lin(3, 2, rng);
  Tensor x = Tensor::randn({4, 3}, rng);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
  Tensor manual = ops::add_bias(ops::matmul(x, lin.weight()), lin.bias());
  expect_close(y, manual);
  EXPECT_THROW(lin.forward(Tensor::zeros({4, 5})), StgError);
}

TEST(Module, ParameterCollectionAndCounts) {
  Rng rng(2);
  nn::TGCN tgcn(4, 8, rng);
  auto params = tgcn.parameters();
  // 3 convs × (weight+bias) + 3 linears × (weight+bias) = 12 tensors.
  EXPECT_EQ(params.size(), 12u);
  // Dotted names include the submodule path.
  bool found = false;
  for (const auto& p : params) found = found || p.name == "conv_z.weight";
  EXPECT_TRUE(found);
  const int64_t expect_count = 3 * (4 * 8 + 8) + 3 * (16 * 8 + 8);
  EXPECT_EQ(tgcn.parameter_count(), expect_count);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(3);
  nn::Linear lin(2, 2, rng);
  Tensor x = Tensor::randn({3, 2}, rng);
  ops::sum(lin.forward(x)).backward();
  EXPECT_TRUE(lin.weight().grad().defined());
  EXPECT_NE(lin.weight().grad().at(0), 0.0f);
  lin.zero_grad();
  EXPECT_EQ(lin.weight().grad().at(0), 0.0f);
}

// The headline correctness test: the fused vertex-centric layer and the
// edge-parallel baseline compute the same function and the same gradients.
class GcnEquivalence : public ::testing::TestWithParam<int64_t> {};

TEST_P(GcnEquivalence, ForwardAndGradientsMatchBaseline) {
  const int64_t F = GetParam();
  const uint32_t n = 20;
  EdgeList edges = random_edges(n, 80, 7);
  Rng rng_data(11);
  Tensor x_st = Tensor::randn({n, 3}, rng_data, 1.0f, true);
  Tensor x_bl = x_st.detach();
  x_bl.set_requires_grad(true);
  std::vector<float> ew(edges.size());
  {
    Rng rng_w(13);
    for (auto& w : ew) w = rng_w.uniform(0.5f, 1.5f);
  }

  // Same seed → identical weight init in both layers.
  Rng rng_a(99), rng_b(99);
  nn::SeastarGCNConv stconv(3, F, rng_a);
  baseline::PygGCNConv blconv(3, F, rng_b);

  StaticTemporalGraph graph(n, edges, 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  Tensor y_st = stconv.forward(exec, x_st, ew.data());

  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  Tensor y_bl = blconv.forward(coo, x_bl, ew.data());

  expect_close(y_st, y_bl, 1e-4f, "forward");

  // Same downstream loss; gradients must match for x, W and b.
  ops::sum(ops::mul(y_st, y_st)).backward();
  ops::sum(ops::mul(y_bl, y_bl)).backward();
  exec.verify_drained();

  expect_close(x_st.grad(), x_bl.grad(), 1e-3f, "grad_x");
  expect_close(stconv.parameters()[0].tensor.grad(),
               blconv.parameters()[0].tensor.grad(), 1e-3f, "grad_W");
  expect_close(stconv.parameters()[1].tensor.grad(),
               blconv.parameters()[1].tensor.grad(), 1e-3f, "grad_b");
}

INSTANTIATE_TEST_SUITE_P(FeatureSizes, GcnEquivalence,
                         ::testing::Values(1, 2, 8, 64, 80));

TEST(GcnEquivalence, UnweightedEdgesAlsoMatch) {
  const uint32_t n = 15;
  EdgeList edges = random_edges(n, 50, 17);
  Rng ra(5), rb(5), rd(6);
  nn::SeastarGCNConv stconv(4, 4, ra);
  baseline::PygGCNConv blconv(4, 4, rb);
  Tensor x = Tensor::randn({n, 4}, rd);

  StaticTemporalGraph graph(n, edges, 1);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  // Unweighted: pass uniform weights to both (GCN norm only).
  std::vector<float> ones(edges.size(), 1.0f);
  Tensor y_st = stconv.forward(exec, x, ones.data());
  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  Tensor y_bl = blconv.forward(coo, x, nullptr);
  expect_close(y_st, y_bl, 1e-4f);
}

TEST(TgcnEquivalence, CellsMatchAcrossTimesteps) {
  const uint32_t n = 12;
  EdgeList edges = random_edges(n, 40, 23);
  Rng ra(31), rb(31), rd(32);
  nn::TGCN st(3, 5, ra);
  baseline::PygTGCN bl(3, 5, rb);

  StaticTemporalGraph graph(n, edges, 4);
  core::TemporalExecutor exec(graph);
  baseline::CooSnapshot coo = baseline::make_coo(n, edges);
  std::vector<float> ones(edges.size(), 1.0f);

  // Forward-only comparison: run in inference mode so no backward state
  // accumulates on the State Stack (gradient equivalence is covered by
  // GcnEquivalence above).
  NoGradGuard ng;
  Tensor h_st, h_bl;
  for (uint32_t t = 0; t < 4; ++t) {
    Tensor x = Tensor::randn({n, 3}, rd);
    exec.begin_forward_step(t);
    h_st = st.forward(exec, x, h_st, ones.data());
    h_bl = bl.forward(coo, x, h_bl, nullptr);
    expect_close(h_st, h_bl, 2e-4f, "hidden state");
  }
  exec.verify_drained();
}

TEST(Optim, SgdDescendsQuadratic) {
  Tensor w = Tensor::from_vector({4.0f}, {1}, true);
  nn::Sgd opt({{"w", w}}, 0.1f);
  for (int i = 0; i < 50; ++i) {
    opt.zero_grad();
    ops::mse_loss(w, Tensor::zeros({1})).backward();
    opt.step();
  }
  EXPECT_NEAR(w.item(), 0.0f, 1e-3f);
}

TEST(Optim, SgdMomentumFasterOnIllConditioned) {
  // Same steps; momentum should end closer to the optimum on a shallow
  // direction.
  auto run = [](float momentum) {
    Tensor w = Tensor::from_vector({4.0f}, {1}, true);
    nn::Sgd opt({{"w", w}}, 0.02f, momentum);
    for (int i = 0; i < 30; ++i) {
      opt.zero_grad();
      ops::mse_loss(w, Tensor::zeros({1})).backward();
      opt.step();
    }
    return std::abs(w.item());
  };
  EXPECT_LT(run(0.9f), run(0.0f));
}

TEST(Optim, AdamDescendsQuadratic) {
  Tensor w = Tensor::from_vector({2.0f, -3.0f}, {2}, true);
  nn::Adam opt({{"w", w}}, 0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    ops::mse_loss(w, Tensor::zeros({2})).backward();
    opt.step();
  }
  EXPECT_NEAR(w.at(0), 0.0f, 1e-2f);
  EXPECT_NEAR(w.at(1), 0.0f, 1e-2f);
}

TEST(Models, RegressorShapesAndState) {
  Rng rng(41);
  const uint32_t n = 10;
  nn::TGCNRegressor model(4, 6, rng);
  StaticTemporalGraph graph(n, random_edges(n, 30, 43), 2);
  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  Tensor x = Tensor::randn({n, 4}, rng);
  Tensor h = model.initial_state(n);
  auto [y, h2] = model.step(exec, x, h, nullptr);
  EXPECT_EQ(y.shape(), (Shape{n, 1}));
  EXPECT_EQ(h2.shape(), (Shape{n, 6}));
}

TEST(Models, LinkLogitsAreDotProducts) {
  Tensor h = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {3, 2});
  Tensor logits = nn::link_logits(h, {0, 1}, {2, 0});
  // <h0,h2> = 1*5+2*6 = 17; <h1,h0> = 3*1+4*2 = 11.
  EXPECT_EQ(logits.to_vector(), (std::vector<float>{17, 11}));
}

// ---- finite-difference gradient checks ----------------------------------

// Loss Σ y ⊙ R, accumulated in double so a central difference sees each
// output entry's float rounding once.
double weighted_sum(const Tensor& y, const std::vector<float>& r) {
  double acc = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i)
    acc += static_cast<double>(y.at(i)) * r[static_cast<std::size_t>(i)];
  return acc;
}

// The autograd loss matching weighted_sum.
Tensor weighted_sum_op(const Tensor& y, const std::vector<float>& r) {
  return ops::sum(ops::mul(y, Tensor::from_vector(r, y.shape())));
}

// Central differences of `loss` over every entry of `t` (perturbed in
// place) against the analytic gradient. The step actually taken is read
// back from the float storage, so rounding of v ± eps does not bias it.
void expect_fd_gradient(Tensor t, const Tensor& analytic,
                        const std::function<double()>& loss, float eps,
                        const std::string& what) {
  ASSERT_TRUE(analytic.defined()) << what << ": no gradient";
  ASSERT_TRUE(same_shape(t, analytic)) << what;
  auto tol = [](double slope) { return 2e-3 + 1e-2 * std::abs(slope); };
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float v = p[i];
    p[i] = v + eps;
    const double hi = p[i];
    const double lp = loss();
    p[i] = v - eps;
    const double lo = p[i];
    const double lm = loss();
    p[i] = v;
    const double fd = (lp - lm) / (hi - lo);
    EXPECT_NEAR(analytic.at(i), fd, tol(fd)) << what << " entry " << i;
  }
}

EdgeList random_stream(uint32_t n, int count, uint64_t seed) {
  Rng rng(seed);
  EdgeList stream;
  while (static_cast<int>(stream.size()) < count) {
    const uint32_t s = rng.next_below(n), d = rng.next_below(n);
    if (s != d) stream.emplace_back(s, d);
  }
  return stream;
}

// Per-label edge weights for any snapshot of up to `max_edges` edges: a
// fixed function of the label, so every evaluation at one timestamp binds
// the same weight to the same edge.
std::vector<float> label_weights(uint32_t max_edges) {
  std::vector<float> w(max_edges);
  for (uint32_t e = 0; e < max_edges; ++e) w[e] = 0.5f + 0.15f * (e % 7);
  return w;
}

enum class XKind { kLeafNoGrad, kLeaf, kIntermediate };

const char* x_kind_name(XKind k) {
  switch (k) {
    case XKind::kLeafNoGrad: return "leaf without grad";
    case XKind::kLeaf: return "leaf";
    case XKind::kIntermediate: return "intermediate";
  }
  return "?";
}

// Fills every rank-1 parameter (the biases) with small random values, so a
// dropped bias gradient term would show.
void randomize_biases(const nn::Module& module, Rng& rng) {
  for (const auto& p : module.parameters()) {
    Tensor t = p.tensor;
    if (t.dim() != 1) continue;
    for (int64_t i = 0; i < t.numel(); ++i)
      t.data()[i] = rng.uniform(-0.3f, 0.3f);
  }
}

// One step of a spatial layer at timestamp t of `graph`: the gradients of
// every parameter and (when it needs one) of X against central differences
// with step `eps`, the loss a random weighting of the output.
void gradcheck_layer(STGraphBase& graph, uint32_t t, const nn::Module& module,
                     int64_t in, int64_t out,
                     const std::function<Tensor(core::TemporalExecutor&,
                                                const Tensor&)>& step,
                     Rng& rng, XKind kind, float eps) {
  const uint32_t n = graph.num_nodes();
  const bool x_grad = kind != XKind::kLeafNoGrad;
  Tensor x0 = Tensor::randn({n, in}, rng, 1.0f, x_grad);
  std::vector<float> r(static_cast<std::size_t>(n * out));
  for (auto& v : r) v = rng.uniform(-1.0f, 1.0f);
  auto input = [&] {
    return kind == XKind::kIntermediate ? ops::tanh_op(x0) : x0;
  };

  core::TemporalExecutor exec(graph);
  exec.begin_forward_step(t);
  if (graph.is_dynamic()) {
    ASSERT_TRUE(exec.forward_view().out_view.has_gaps);
  }
  weighted_sum_op(step(exec, input()), r).backward();
  exec.verify_drained();

  auto loss = [&] {
    NoGradGuard ng;
    exec.begin_forward_step(t);
    return weighted_sum(step(exec, input()), r);
  };
  for (const auto& p : module.parameters())
    expect_fd_gradient(p.tensor, p.tensor.grad(), loss, eps, p.name);
  if (x_grad) {
    expect_fd_gradient(x0, x0.grad(), loss, eps, "X");
  } else {
    EXPECT_FALSE(x0.grad().defined());
  }
  exec.verify_drained();
}

// One SeastarGCNConv at timestamp t of `graph`, checked against central
// differences for W, b and (when it needs one) X, for every combination of
// multiplication order, edge weights and kind of X. 3→5 aggregates first
// and 5→3 last for every kind of X; 4→4 aggregates first only when X needs
// no gradient.
void gradcheck_gcn(STGraphBase& graph, uint32_t t) {
  const std::vector<float> ew = label_weights(graph.num_edges_at(t));
  for (const auto& [in, out] :
       {std::pair<int64_t, int64_t>{3, 5}, {5, 3}, {4, 4}}) {
    for (const bool weighted : {false, true}) {
      for (const XKind kind :
           {XKind::kLeafNoGrad, XKind::kLeaf, XKind::kIntermediate}) {
        SCOPED_TRACE(std::to_string(in) + "->" + std::to_string(out) +
                     (weighted ? " weighted " : " unweighted ") +
                     x_kind_name(kind));
        Rng rng(in * 100 + out);
        nn::SeastarGCNConv conv(in, out, rng);
        const bool x_grad = kind != XKind::kLeafNoGrad;
        EXPECT_EQ(conv.aggregates_first(x_grad, /*shared=*/false),
                  x_grad ? 3 * in < 2 * out : in <= out);
        // A nonzero bias, so a dropped bias term would show.
        Tensor bias = conv.parameters()[1].tensor;
        for (int64_t i = 0; i < out; ++i) bias.data()[i] = 0.1f * (i + 1);
        const float* w = weighted ? ew.data() : nullptr;
        gradcheck_layer(graph, t, conv, in, out,
                        [&](core::TemporalExecutor& exec, const Tensor& x) {
                          return conv.forward(exec, x, w);
                        },
                        rng, kind, 1e-2f);
      }
    }
  }
}

TEST(GcnGradcheck, BothOrdersOnStaticGraph) {
  const uint32_t n = 14;
  StaticTemporalGraph graph(n, random_edges(n, 50, 61), 1);
  gradcheck_gcn(graph, 0);
}

TEST(GcnGradcheck, BothOrdersOnGpmaGappedViews) {
  DtdgEvents ev = window_edge_stream(16, random_stream(16, 400, 67), 10.0);
  GpmaGraph graph(ev);
  ASSERT_GE(graph.num_timestamps(), 3u);
  gradcheck_gcn(graph, 2);
}

// One recurrent cell under test: its parameters and one step of its state.
// The state is {h} for TGCN and GConvGRU, {h, c} for GConvLSTM and
// {packed window, attention output} for A3TGCN; `state_widths` holds each
// state tensor's column count.
struct CellUnderTest {
  std::shared_ptr<const nn::Module> module;
  std::function<std::vector<Tensor>(core::TemporalExecutor&, const Tensor& x,
                                    const std::vector<Tensor>& state,
                                    const float* edge_weights)>
      step;
  std::vector<int64_t> state_widths;
};
using MakeCell = std::function<CellUnderTest(int64_t in, int64_t out, Rng&)>;

// A cell whose whole state is h (TGCN, GConvGRU).
template <typename Cell>
CellUnderTest h_cell(std::shared_ptr<Cell> cell, int64_t out) {
  return {cell,
          [cell](core::TemporalExecutor& exec, const Tensor& x,
                 const std::vector<Tensor>& st, const float* ew) {
            return std::vector<Tensor>{cell->forward(exec, x, st[0], ew)};
          },
          {out}};
}

CellUnderTest make_tgcn(int64_t in, int64_t out, Rng& rng) {
  return h_cell(std::make_shared<nn::TGCN>(in, out, rng), out);
}

CellUnderTest make_gconv_gru_k2(int64_t in, int64_t out, Rng& rng) {
  return h_cell(std::make_shared<nn::GConvGRU>(in, out, /*k=*/2, rng), out);
}

CellUnderTest make_gconv_lstm_k2(int64_t in, int64_t out, Rng& rng) {
  auto cell = std::make_shared<nn::GConvLSTM>(in, out, /*k=*/2, rng);
  return {cell,
          [cell](core::TemporalExecutor& exec, const Tensor& x,
                 const std::vector<Tensor>& st, const float* ew) {
            auto [h, c] = cell->forward(exec, x, st[0], st[1], ew);
            return std::vector<Tensor>{h, c};
          },
          {out, out}};
}

// A3TGCN over a window of three hidden states: the window is the state the
// next step reads, and the loss also weights the attention output.
CellUnderTest make_a3tgcn(int64_t in, int64_t out, Rng& rng) {
  constexpr int64_t kPeriods = 3;
  auto cell = std::make_shared<nn::A3TGCN>(in, out, kPeriods, rng);
  return {cell,
          [cell](core::TemporalExecutor& exec, const Tensor& x,
                 const std::vector<Tensor>& st, const float* ew) {
            auto [att, window] = cell->forward(exec, x, st[0], ew);
            return std::vector<Tensor>{window, att};
          },
          {out * kPeriods, out}};
}

// A recurrent cell over two timesteps: gradients of every parameter and of
// both steps' X against central differences, with the loss a random
// weighting of every final state tensor. Each cell runs at in ≤ out and at
// in > out, so its convolutions take both multiplication orders (TGCN: the
// one Â·X its three gates share, then three separate aggregations).
void gradcheck_cell(STGraphBase& graph, const MakeCell& make_cell) {
  const uint32_t n = graph.num_nodes();
  constexpr uint32_t kSteps = 2;
  ASSERT_GE(graph.num_timestamps(), kSteps);
  for (const auto& [in, out] : {std::pair<int64_t, int64_t>{3, 4}, {6, 4}}) {
    SCOPED_TRACE(std::to_string(in) + "->" + std::to_string(out));
    Rng rng(in * 10 + out);
    const CellUnderTest cell = make_cell(in, out, rng);
    const auto params = cell.module->parameters();
    ASSERT_FALSE(params.empty());
    randomize_biases(*cell.module, rng);
    std::vector<Tensor> xs;
    for (uint32_t s = 0; s < kSteps; ++s)
      xs.push_back(Tensor::randn({n, in}, rng, 1.0f, true));
    const std::size_t state_tensors = cell.state_widths.size();
    std::vector<Tensor> state0;
    std::vector<std::vector<float>> r(state_tensors);
    for (std::size_t k = 0; k < state_tensors; ++k) {
      const int64_t width = cell.state_widths[k];
      state0.push_back(Tensor::randn({n, width}, rng, 0.5f));
      r[k].resize(static_cast<std::size_t>(n * width));
      for (auto& v : r[k]) v = rng.uniform(-1.0f, 1.0f);
    }
    std::vector<std::vector<float>> ew;
    for (uint32_t s = 0; s < kSteps; ++s)
      ew.push_back(label_weights(graph.num_edges_at(s)));

    core::TemporalExecutor exec(graph);
    auto run = [&] {
      std::vector<Tensor> state = state0;
      for (uint32_t s = 0; s < kSteps; ++s) {
        exec.begin_forward_step(s);
        state = cell.step(exec, xs[s], state, ew[s].data());
      }
      return state;
    };
    const std::vector<Tensor> final_state = run();
    Tensor total = weighted_sum_op(final_state[0], r[0]);
    for (std::size_t k = 1; k < state_tensors; ++k)
      total = ops::add(total, weighted_sum_op(final_state[k], r[k]));
    total.backward();
    exec.verify_drained();

    auto loss = [&] {
      NoGradGuard ng;
      const std::vector<Tensor> st = run();
      double acc = 0.0;
      for (std::size_t k = 0; k < state_tensors; ++k)
        acc += weighted_sum(st[k], r[k]);
      return acc;
    };
    for (const auto& p : params)
      expect_fd_gradient(p.tensor, p.tensor.grad(), loss, 3e-3f, p.name);
    for (uint32_t s = 0; s < kSteps; ++s)
      expect_fd_gradient(xs[s], xs[s].grad(), loss, 3e-3f,
                         "X at step " + std::to_string(s));
    exec.verify_drained();
  }
}

StaticTemporalGraph gradcheck_static_graph() {
  const uint32_t n = 12;
  return StaticTemporalGraph(n, random_edges(n, 40, 71), 2);
}

GpmaGraph gradcheck_gpma_graph() {
  return GpmaGraph(
      window_edge_stream(12, random_stream(12, 300, 73), 10.0));
}

TEST(TgcnGradcheck, SharedAggregateOnStaticGraph) {
  StaticTemporalGraph graph = gradcheck_static_graph();
  gradcheck_cell(graph, make_tgcn);
}

TEST(TgcnGradcheck, SharedAggregateOnGpmaGraph) {
  GpmaGraph graph = gradcheck_gpma_graph();
  gradcheck_cell(graph, make_tgcn);
}

TEST(GConvGruGradcheck, K2OnStaticGraph) {
  StaticTemporalGraph graph = gradcheck_static_graph();
  gradcheck_cell(graph, make_gconv_gru_k2);
}

TEST(GConvGruGradcheck, K2OnGpmaGraph) {
  GpmaGraph graph = gradcheck_gpma_graph();
  gradcheck_cell(graph, make_gconv_gru_k2);
}

TEST(GConvLstmGradcheck, K2WithCellStateOnStaticGraph) {
  StaticTemporalGraph graph = gradcheck_static_graph();
  gradcheck_cell(graph, make_gconv_lstm_k2);
}

TEST(GConvLstmGradcheck, K2WithCellStateOnGpmaGraph) {
  GpmaGraph graph = gradcheck_gpma_graph();
  gradcheck_cell(graph, make_gconv_lstm_k2);
}

TEST(A3tgcnGradcheck, AttentionWindowOnStaticGraph) {
  StaticTemporalGraph graph = gradcheck_static_graph();
  gradcheck_cell(graph, make_a3tgcn);
}

TEST(A3tgcnGradcheck, AttentionWindowOnGpmaGraph) {
  GpmaGraph graph = gradcheck_gpma_graph();
  gradcheck_cell(graph, make_a3tgcn);
}

// Three sibling convolutions over one handle compute exactly what three
// independent ones do, bit for bit; the handle holds one tensor until the
// last backward node has read it.
TEST(GcnSharedAggregate, SiblingsMatchUnsharedAndLastNodeFrees) {
  const uint32_t n = 18;
  StaticTemporalGraph graph(n, random_edges(n, 60, 79), 1);
  Rng rng_data(83);
  const Tensor x = Tensor::randn({n, 4}, rng_data);

  auto run = [&](bool share) {
    Rng rng(89);
    std::vector<std::unique_ptr<nn::SeastarGCNConv>> convs;
    for (int i = 0; i < 3; ++i)
      convs.push_back(std::make_unique<nn::SeastarGCNConv>(4, 6, rng));
    core::TemporalExecutor exec(graph);
    exec.begin_forward_step(0);
    auto handle = std::make_shared<nn::SeastarGCNConv::SharedAggregate>();
    Tensor y;
    for (const auto& c : convs) {
      Tensor yi = c->forward(exec, x, nullptr, share ? handle : nullptr);
      y = y.defined() ? ops::add(y, ops::mul(yi, yi)) : ops::mul(yi, yi);
    }
    if (share) {
      EXPECT_TRUE(handle->ax.defined());
      EXPECT_EQ(handle->pending, 3);
      handle->ax = Tensor();  // released after the last forward, as TGCN does
    }
    ops::sum(y).backward();
    exec.verify_drained();
    EXPECT_FALSE(handle->ax.defined());
    EXPECT_EQ(handle->pending, 0);
    std::vector<float> out = y.to_vector();
    for (const auto& c : convs)
      for (const auto& p : c->parameters()) {
        const auto g = p.tensor.grad().to_vector();
        out.insert(out.end(), g.begin(), g.end());
      }
    return out;
  };
  const std::vector<float> shared = run(true);
  const std::vector<float> separate = run(false);
  ASSERT_EQ(shared.size(), separate.size());
  EXPECT_EQ(0, std::memcmp(shared.data(), separate.data(),
                           shared.size() * sizeof(float)));
}

// ---- launch and GEMM counts -------------------------------------------

// The aggregate-first order shares one Â·X across TGCN's three gates: one
// forward aggregation per timestep, and with a leaf X (no input gradient)
// one backward launch per timestep, the Â·X recompute. The aggregate-last
// order made three of each.
TEST(TgcnLaunches, OneAggregationPerTimestepEachWayWithLeafInput) {
  const uint32_t n = 40;
  constexpr uint32_t kSteps = 3;
  StaticTemporalGraph graph(n, random_edges(n, 160, 97), kSteps);
  Rng rng(101);
  nn::TGCN cell(4, 8, rng);
  core::TemporalExecutor exec(graph);
  std::vector<Tensor> xs;
  for (uint32_t s = 0; s < kSteps; ++s)
    xs.push_back(Tensor::randn({n, 4}, rng));

  const uint64_t start = g_aggregation_launches.load();
  Tensor h;
  for (uint32_t s = 0; s < kSteps; ++s) {
    exec.begin_forward_step(s);
    h = cell.forward(exec, xs[s], h);
  }
  const uint64_t forward = g_aggregation_launches.load() - start;
  ops::sum(ops::mul(h, h)).backward();
  const uint64_t backward = g_aggregation_launches.load() - start - forward;
  exec.verify_drained();
  EXPECT_EQ(forward, kSteps);
  EXPECT_EQ(backward, kSteps);
}

// The order rule counts the backward launches: aggregate first pays a second
// backward aggregation (Âᵀ·(g·Wᵀ), beside the Â·X recompute) when X needs a
// gradient, so at in = out such a convolution aggregates last and launches
// one aggregation each way. A narrow input (3·in < 2·out) still aggregates
// first, and a shared handle keeps the in ≤ out rule.
TEST(GcnOrder, InputGradientMovesEqualWidthsToAggregateLast) {
  const uint32_t n = 20;
  StaticTemporalGraph graph(n, random_edges(n, 70, 109), 1);
  struct Case {
    int64_t in, out;
    bool x_grad, shared;
    uint64_t backward_launches;
  };
  for (const Case& c : {Case{4, 4, false, false, 1}, Case{4, 4, true, false, 1},
                        Case{2, 4, true, false, 2}, Case{4, 4, true, true, 2}}) {
    SCOPED_TRACE(std::to_string(c.in) + "->" + std::to_string(c.out) +
                 (c.x_grad ? " with" : " without") + " input gradient" +
                 (c.shared ? ", shared" : ""));
    Rng rng(113);
    nn::SeastarGCNConv conv(c.in, c.out, rng);
    Tensor x = Tensor::randn({n, c.in}, rng, 1.0f, c.x_grad);
    core::TemporalExecutor exec(graph);
    exec.begin_forward_step(0);
    auto handle = c.shared
                      ? std::make_shared<nn::SeastarGCNConv::SharedAggregate>()
                      : nullptr;
    const uint64_t start = g_aggregation_launches.load();
    Tensor loss = ops::sum(conv.forward(exec, x, nullptr, handle));
    if (handle) handle->ax = Tensor();
    const uint64_t forward = g_aggregation_launches.load() - start;
    loss.backward();
    exec.verify_drained();
    EXPECT_EQ(forward, 1u);
    EXPECT_EQ(g_aggregation_launches.load() - start - forward,
              c.backward_launches);
    EXPECT_EQ(x.grad().defined(), c.x_grad);
  }
}

// The backward of a convolution whose X needs no gradient runs exactly one
// GEMM (grad_W) in either order; with an input gradient it runs two.
TEST(GcnBackward, InputGradientGemmRunsOnlyWhenXNeedsIt) {
  const uint32_t n = 16;
  StaticTemporalGraph graph(n, random_edges(n, 50, 103), 1);
  for (const auto& [in, out] : {std::pair<int64_t, int64_t>{3, 5}, {5, 3}}) {
    for (const bool x_grad : {false, true}) {
      SCOPED_TRACE(std::to_string(in) + "->" + std::to_string(out) +
                   (x_grad ? " with" : " without") + " input gradient");
      Rng rng(107);
      nn::SeastarGCNConv conv(in, out, rng);
      Tensor x = Tensor::randn({n, in}, rng, 1.0f, x_grad);
      core::TemporalExecutor exec(graph);
      exec.begin_forward_step(0);
      // sum() seeds the conv's node directly, so every GEMM the backward
      // runs is the conv's own.
      Tensor loss = ops::sum(conv.forward(exec, x));
      const ops::OpProfile before = ops::profile_snapshot();
      loss.backward();
      const ops::OpProfile delta = ops::profile_snapshot() - before;
      exec.verify_drained();
      EXPECT_EQ(delta.count[static_cast<int>(ops::OpClass::kMatmul)],
                x_grad ? 2u : 1u);
      EXPECT_EQ(x.grad().defined(), x_grad);
    }
  }
}

}  // namespace
}  // namespace stgraph
