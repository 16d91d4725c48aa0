// Executor tests: State-Stack LIFO discipline, Graph-Stack pairing,
// pruning switch, drain verification, and eval-mode behaviour.
#include <gtest/gtest.h>

#include "core/backend.hpp"
#include "core/executor.hpp"
#include "graph/naive_graph.hpp"
#include "graph/static_graph.hpp"
#include "nn/models.hpp"
#include "runtime/memory_tracker.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

using core::StateStack;
using core::TemporalExecutor;

DtdgEvents small_dtdg() {
  DtdgEvents ev;
  ev.num_nodes = 4;
  ev.base_edges = {{0, 1}, {1, 2}, {2, 3}};
  ev.deltas.push_back({{{3, 0}}, {{0, 1}}});
  ev.deltas.push_back({{{0, 2}}, {}});
  return ev;
}

TEST(StateStack, PushPopLifo) {
  StateStack s;
  auto t0 = s.push({Tensor::ones({2})});
  auto t1 = s.push({Tensor::ones({3})});
  EXPECT_EQ(s.depth(), 2u);
  auto top = s.pop(t1);
  EXPECT_EQ(top[0].numel(), 3);
  s.pop(t0);
  EXPECT_TRUE(s.empty());
}

TEST(StateStack, OutOfOrderPopThrows) {
  StateStack s;
  auto t0 = s.push({});
  auto t1 = s.push({});
  (void)t1;
  EXPECT_THROW(s.pop(t0), StgError);
}

TEST(StateStack, PopEmptyThrows) {
  StateStack s;
  EXPECT_THROW(s.pop(0), StgError);
}

TEST(StateStack, DeviceBytesTrackHeldTensors) {
  StateStack s;
  EXPECT_EQ(s.device_bytes(), 0u);
  auto t0 = s.push({Tensor::ones({10, 10})});  // 400 bytes
  EXPECT_EQ(s.device_bytes(), 400u);
  auto t1 = s.push({Tensor::ones({5}), Tensor::ones({5})});  // +40
  EXPECT_EQ(s.device_bytes(), 440u);
  EXPECT_EQ(s.peak_device_bytes(), 440u);
  s.pop(t1);
  s.pop(t0);
  EXPECT_EQ(s.device_bytes(), 0u);
  EXPECT_EQ(s.peak_device_bytes(), 440u);  // peak survives the drain
}

TEST(GraphStack, PushPopAndErrors) {
  core::GraphStack g;
  g.push(3);
  g.push(7);
  EXPECT_EQ(g.top(), 7u);
  EXPECT_EQ(g.pop(), 7u);
  EXPECT_EQ(g.pop(), 3u);
  EXPECT_THROW(g.pop(), StgError);
  EXPECT_THROW(g.top(), StgError);
}

TEST(Executor, StaticGraphSkipsGraphStack) {
  StaticTemporalGraph graph(3, {{0, 1}, {1, 2}}, 5);
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  exec.begin_forward_step(1);
  EXPECT_TRUE(exec.graph_stack().empty());  // Algorithm 1: "if G is DTDG"
  exec.backward_view(1);
  exec.verify_drained();
}

TEST(Executor, DynamicGraphPairsForwardAndBackward) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  exec.begin_forward_step(1);
  exec.begin_forward_step(2);
  EXPECT_EQ(exec.graph_stack().depth(), 3u);
  exec.backward_view(2);
  exec.backward_view(1);
  exec.backward_view(0);
  exec.verify_drained();
}

TEST(Executor, BackwardOrderMismatchThrows) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  exec.begin_forward_step(1);
  EXPECT_THROW(exec.backward_view(0), StgError);  // top is 1, not 0
}

TEST(Executor, SiblingBackwardNodesShareOnePop) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  exec.begin_forward_step(1);
  // Three layers of the same timestep all ask for t=1; only the first pops.
  exec.backward_view(1);
  exec.backward_view(1);
  exec.backward_view(1);
  EXPECT_EQ(exec.graph_stack().depth(), 1u);
  exec.backward_view(0);
  exec.verify_drained();
}

TEST(Executor, SavePruningSwitch) {
  StaticTemporalGraph graph(3, {{0, 1}}, 2);
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);

  Tensor small = Tensor::ones({2, 2});
  Tensor big = Tensor::ones({100, 100});
  auto t0 = exec.save_for_backward({small}, {small, big});
  EXPECT_EQ(exec.state_stack().device_bytes(), 16u);  // pruned set only
  exec.retrieve_saved(t0);

  exec.set_state_pruning(false);
  auto t1 = exec.save_for_backward({small}, {small, big});
  EXPECT_EQ(exec.state_stack().device_bytes(), 16u + 40000u);
  exec.retrieve_saved(t1);
  exec.verify_drained();
}

TEST(Executor, VerifyDrainedDetectsLeftovers) {
  StaticTemporalGraph graph(3, {{0, 1}}, 2);
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);
  exec.save_for_backward({Tensor::ones({1})}, {Tensor::ones({1})});
  EXPECT_THROW(exec.verify_drained(), StgError);
}

TEST(Executor, NoGradModeSkipsGraphStack) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  {
    NoGradGuard ng;
    exec.begin_forward_step(0);
    exec.begin_forward_step(1);
  }
  EXPECT_TRUE(exec.graph_stack().empty());
  exec.verify_drained();
}

TEST(Executor, ForwardViewRequiresStep) {
  StaticTemporalGraph graph(3, {{0, 1}}, 2);
  TemporalExecutor exec(graph);
  EXPECT_THROW(exec.forward_view(), StgError);
  EXPECT_THROW(exec.current_forward_timestamp(), StgError);
  exec.begin_forward_step(0);
  EXPECT_EQ(exec.current_forward_timestamp(), 0u);
  EXPECT_EQ(exec.forward_view().num_edges, 1u);
}

TEST(Executor, InferenceModeSkipsBothStacksAndRejectsBackward) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.set_inference_mode(true);
  // No NoGradGuard here on purpose: inference mode alone must keep the
  // executor forward-only, even if a caller forgets the guard.
  exec.begin_forward_step(0);
  exec.begin_forward_step(1);
  exec.begin_forward_step(2);
  EXPECT_TRUE(exec.graph_stack().empty());
  auto ticket = exec.save_for_backward({Tensor::ones({4, 4})},
                                       {Tensor::ones({4, 4})});
  EXPECT_EQ(ticket, TemporalExecutor::kInferenceTicket);
  EXPECT_TRUE(exec.state_stack().empty());
  EXPECT_EQ(exec.state_stack().device_bytes(), 0u);
  EXPECT_THROW(exec.backward_view(2), StgError);
  EXPECT_THROW(exec.retrieve_saved(ticket), StgError);
  exec.verify_drained();
}

TEST(Executor, InferenceModeToggleRequiresDrainedStacks) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.begin_forward_step(0);  // training mode: pushes the Graph Stack
  EXPECT_THROW(exec.set_inference_mode(true), StgError);
  exec.backward_view(0);  // drain
  exec.set_inference_mode(true);
  exec.begin_forward_step(0);
  // Inference steps push nothing, so the executor stays drained and the
  // toggle back out is legal at any step boundary.
  exec.set_inference_mode(false);
  exec.verify_drained();
}

TEST(Executor, InferenceForwardRetainsNoGradientOrStackMemory) {
  NaiveGraph graph(small_dtdg());
  TemporalExecutor exec(graph);
  exec.set_inference_mode(true);
  Rng rng(1);
  nn::TGCNEncoder model(3, 4, rng);
  const Tensor x = Tensor::ones({4, 3});
  auto run_once = [&] {
    NoGradGuard ng;
    Tensor h = model.initial_state(4);
    for (uint32_t t = 0; t < 3; ++t) {
      exec.begin_forward_step(t);
      auto [out, h_next] = model.step(exec, x, h, nullptr);
      h = h_next;
    }
  };
  run_once();  // warm-up (fills any lazily-built caches)
  const std::size_t baseline = MemoryTracker::instance().current_bytes();
  const std::size_t state_peak = exec.state_stack().peak_device_bytes();
  run_once();
  // Forward-only execution retained nothing: no autograd graph, no saved
  // state, no graph-stack entries — residency returns to the baseline.
  EXPECT_EQ(MemoryTracker::instance().current_bytes(), baseline);
  EXPECT_EQ(exec.state_stack().device_bytes(), 0u);
  EXPECT_EQ(exec.state_stack().peak_device_bytes(), state_peak);
  EXPECT_TRUE(exec.graph_stack().empty());
  exec.verify_drained();

  // Contrast: the same steps in training mode do retain backward state.
  TemporalExecutor train_exec(graph);
  Tensor h = model.initial_state(4);
  for (uint32_t t = 0; t < 3; ++t) {
    train_exec.begin_forward_step(t);
    auto [out, h_next] = model.step(train_exec, x, h, nullptr);
    h = h_next;
  }
  EXPECT_GT(train_exec.state_stack().device_bytes(), 0u);
  EXPECT_EQ(train_exec.graph_stack().depth(), 3u);
  train_exec.abort_sequence();
}

TEST(Backend, RegistryCreatesNative) {
  auto names = core::BackendRegistry::instance().available();
  EXPECT_NE(std::find(names.begin(), names.end(), "native"), names.end());
  auto backend = core::BackendRegistry::instance().create("native");
  EXPECT_EQ(backend->name(), "native");
  Tensor t = backend->tensor_from_host({1, 2, 3}, {3});
  EXPECT_EQ(t.at(2), 3.0f);
  EXPECT_THROW(core::BackendRegistry::instance().create("tensorflow"),
               StgError);
}

TEST(Backend, CustomBackendRegistration) {
  struct FakeBackend : core::Backend {
    std::string name() const override { return "fake"; }
    Tensor tensor_from_host(const std::vector<float>& v, Shape s) const override {
      return Tensor::from_vector(v, std::move(s));
    }
    Tensor zeros(Shape s) const override { return Tensor::zeros(std::move(s)); }
    void launch_aggregation(const compiler::KernelSpec&,
                            const compiler::KernelArgs&) const override {}
  };
  core::BackendRegistry::instance().register_backend(
      "fake", [] { return std::make_unique<FakeBackend>(); });
  EXPECT_EQ(core::BackendRegistry::instance().create("fake")->name(), "fake");
}

}  // namespace
}  // namespace stgraph
