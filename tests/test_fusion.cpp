// Fusing tape compiler tests: elementwise-IR passes, derived backward
// programs (saved transcendental intermediates), and — the heart of the
// contract — randomized bit-parity fuzzing between the fused single-pass
// interpreter and the unfused replay through the ops:: tape (the oracle
// library's replay_unfused, installed by fu::ReplayScope). "Parity" here is
// memcmp over raw float bits, not tolerance: losses, outputs, parameters,
// and gradients must be IDENTICAL, including through NaN/Inf-salted inputs,
// odd feature widths that leave SIMD remainder lanes, and element counts
// past the parallel grain that split blocks at odd offsets. Also covered:
// empty regions, finite-difference gradients through every fused cell
// region, one FusedOp serving interleaved shapes, fused launches counted by
// the op profile in both directions, the fused GCN bias epilogue, and the
// bias-grad scratch arena.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "compiler/autodiff.hpp"
#include "compiler/fusion.hpp"
#include "compiler/fusion_replay.hpp"
#include "compiler/ir.hpp"
#include "compiler/passes.hpp"
#include "compiler/trace.hpp"
#include "core/executor.hpp"
#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "graph/static_graph.hpp"
#include "nn/gcn.hpp"
#include "nn/gconv_gru.hpp"
#include "nn/gconv_lstm.hpp"
#include "nn/models.hpp"
#include "autograd/engine.hpp"
#include "runtime/memory_tracker.hpp"
#include "tensor/op_profile.hpp"
#include "tensor/ops.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

namespace fu = compiler::fusion;
using compiler::EwOp;
using compiler::EwProgram;
using compiler::EwTracer;

void expect_bitwise(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_TRUE(a.defined()) << what << ": lhs undefined";
  ASSERT_TRUE(b.defined()) << what << ": rhs undefined";
  ASSERT_EQ(a.numel(), b.numel()) << what;
  if (a.numel() == 0) return;  // an empty tensor may have no storage
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<size_t>(a.numel())),
            0)
      << what << ": float bits differ";
}

/// Non-finite salting mode. NaN and Inf are salted in SEPARATE fuzz
/// instances on purpose: parity is bitwise as long as only one NaN bit
/// pattern is in flight (the salted +qNaN, or the hardware's ffc00000
/// "indefinite" that invalid ops like Inf−Inf produce). When two binary-op
/// operands are both NaN with DIFFERENT patterns, IEEE lets the hardware
/// return either payload and C does not pin which operand the compiler
/// places first — the result's sign/payload is codegen-dependent in both
/// the fused interpreter and the ops:: replay, so no contract can cover
/// it. Salting them separately keeps every instance single-pattern.
enum class Salt { kNone, kNan, kInf };

/// Overwrite a handful of entries with the mode's specials — parity must
/// hold through non-finite propagation, not just on well-behaved data.
void salt(Tensor& t, Rng& rng, Salt mode) {
  if (mode == Salt::kNone) return;
  static const float nan_set[3] = {std::numeric_limits<float>::quiet_NaN(),
                                   0.0f, -0.0f};
  static const float inf_set[4] = {std::numeric_limits<float>::infinity(),
                                   -std::numeric_limits<float>::infinity(),
                                   0.0f, -0.0f};
  float* d = t.data();
  const int64_t n = t.numel();
  const int64_t count = n / 16 + 1;
  for (int64_t i = 0; i < count; ++i) {
    float v = mode == Salt::kNan
                  ? nan_set[rng.next_below(3)]
                  : inf_set[rng.next_below(4)];
    d[rng.next_below(static_cast<uint64_t>(n))] = v;
  }
}

// ---- elementwise IR passes -----------------------------------------------

TEST(EwPasses, CseMergesDuplicateNodes) {
  // (a+b)·σ(a+b): the tracer records two identical kAdd nodes; CSE must
  // collapse them to the earliest occurrence.
  EwProgram p = compiler::trace_elementwise([](EwTracer& t) {
    auto a = t.in(), b = t.in();
    return t.mul(t.add(a, b), t.sigmoid(t.add(a, b)));
  });
  // 2 inputs + add + add + sigmoid + mul.
  ASSERT_EQ(p.nodes.size(), 6u);
  EwProgram o = compiler::optimize_elementwise(p);
  EXPECT_EQ(o.nodes.size(), 5u);  // one kAdd merged away
  EXPECT_EQ(o.inputs.size(), 2u);
  // Idempotent.
  EwProgram o2 = compiler::optimize_elementwise(o);
  EXPECT_TRUE(o2 == o);
}

TEST(EwPasses, DceDropsDeadNodesKeepsInputs) {
  EwProgram p = compiler::trace_elementwise([](EwTracer& t) {
    auto a = t.in(), b = t.in();
    (void)t.exp(t.mul(a, a));  // dead chain
    return t.add(a, b);
  });
  ASSERT_EQ(p.nodes.size(), 5u);
  EwProgram o = compiler::ew_eliminate_dead(p);
  EXPECT_EQ(o.nodes.size(), 3u);  // inputs survive even if one were unused
  EXPECT_EQ(o.inputs.size(), 2u);
  ASSERT_EQ(o.outputs.size(), 1u);
  EXPECT_EQ(o.nodes[static_cast<size_t>(o.outputs[0])].op, EwOp::kAdd);
}

TEST(EwPasses, HashAndPrintDistinguishPrograms) {
  auto sig_add = compiler::trace_elementwise(
      [](EwTracer& t) { return t.sigmoid(t.add(t.in(), t.in())); });
  auto sig_add2 = compiler::trace_elementwise(
      [](EwTracer& t) { return t.sigmoid(t.add(t.in(), t.in())); });
  auto tanh_add = compiler::trace_elementwise(
      [](EwTracer& t) { return t.tanh(t.add(t.in(), t.in())); });
  EXPECT_TRUE(sig_add == sig_add2);
  EXPECT_EQ(sig_add.to_string(), sig_add2.to_string());
  EXPECT_FALSE(sig_add == tanh_add);
  EXPECT_NE(sig_add.to_string().find("sig"), std::string::npos);
  EXPECT_NE(tanh_add.to_string().find("tanh"), std::string::npos);
  // Immediates participate in equality and the listing (0.1 vs 0.2 slope).
  auto l1 = compiler::trace_elementwise(
      [](EwTracer& t) { return t.leaky_relu(t.in(), 0.1f); });
  auto l2 = compiler::trace_elementwise(
      [](EwTracer& t) { return t.leaky_relu(t.in(), 0.2f); });
  EXPECT_FALSE(l1 == l2);
  EXPECT_NE(l1.to_string(), l2.to_string());
}

// ---- derived backward programs -------------------------------------------

TEST(EwAutodiff, SavedTranscendentalsBecomeBackwardInputs) {
  EwProgram fwd = compiler::optimize_elementwise(compiler::trace_elementwise(
      [](EwTracer& t) { return t.sigmoid(t.add(t.in(), t.in())); }));
  compiler::EwBackward bw = compiler::differentiate_elementwise(fwd);
  // The sigmoid value is read back from the forward pass, not recomputed:
  // exactly one saved node, fed through slot num_inputs + 1 (after the
  // grad_out slot).
  ASSERT_EQ(bw.saved.size(), 1u);
  EXPECT_EQ(fwd.nodes[static_cast<size_t>(bw.saved[0])].op, EwOp::kSigmoid);
  EXPECT_EQ(bw.prog.inputs.size(), fwd.inputs.size() + 2u);
  // No transcendental evaluation survives in the backward program.
  for (const compiler::EwNode& n : bw.prog.nodes) {
    EXPECT_NE(n.op, EwOp::kSigmoid);
    EXPECT_NE(n.op, EwOp::kTanh);
    EXPECT_NE(n.op, EwOp::kExp);
  }
  // Both inputs get gradients (σ'·g each).
  ASSERT_EQ(bw.input_grads.size(), 2u);
  EXPECT_GE(bw.input_grads[0], 0);
  EXPECT_GE(bw.input_grads[1], 0);
}

TEST(EwAutodiff, BiasInputGradientProduced) {
  EwProgram fwd = compiler::optimize_elementwise(compiler::trace_elementwise(
      [](EwTracer& t) { return t.tanh(t.add_bias(t.in(), t.in_bias())); }));
  compiler::EwBackward bw = compiler::differentiate_elementwise(fwd);
  ASSERT_EQ(bw.input_grads.size(), 2u);
  EXPECT_GE(bw.input_grads[0], 0);
  EXPECT_GE(bw.input_grads[1], 0);  // pointwise; executor column-reduces
  ASSERT_EQ(bw.saved.size(), 1u);
  EXPECT_EQ(fwd.nodes[static_cast<size_t>(bw.saved[0])].op, EwOp::kTanh);
}

// ---- randomized fused-vs-replay parity fuzz ------------------------------

/// One fused region under test: how many [N,F] / [F] inputs it takes and
/// how to invoke it.
struct Region {
  const char* name;
  int num_mats;
  int num_bias;
  Tensor (*run)(const std::vector<Tensor>& in);
  /// False for regions whose BACKWARD inherently mixes NaN bit patterns:
  /// d(a/b)/db negates the propagated NaN (−a/b²) and then multiplies it
  /// against the un-negated one, hitting the two-distinct-NaN-operands
  /// carve-out documented in fusion.hpp. Only the synthetic div region is
  /// affected — no production cell region divides.
  bool nan_safe_backward;
};

Tensor run_sigmoid_add(const std::vector<Tensor>& in) {
  return fu::sigmoid_add(in[0], in[1]);
}
Tensor run_tanh_add(const std::vector<Tensor>& in) {
  return fu::tanh_add(in[0], in[1]);
}
Tensor run_gate_combine(const std::vector<Tensor>& in) {
  return fu::gate_combine(in[0], in[1], in[2]);
}
Tensor run_lstm_cell(const std::vector<Tensor>& in) {
  return fu::lstm_cell_state(in[0], in[1], in[2], in[3]);
}
Tensor run_mul_tanh(const std::vector<Tensor>& in) {
  return fu::mul_tanh(in[0], in[1]);
}
Tensor run_bias_sigmoid(const std::vector<Tensor>& in) {
  return fu::bias_sigmoid(in[0], in[1]);
}
Tensor run_bias_tanh(const std::vector<Tensor>& in) {
  return fu::bias_tanh(in[0], in[1]);
}
/// A synthetic region exercising the ops the cell helpers do not touch
/// (sub/div/scalars/relu/leaky/exp) through the public FusedOp API.
Tensor run_mixed(const std::vector<Tensor>& in) {
  static const fu::FusedOp op("test_mixed", [](EwTracer& t) {
    auto a = t.in(), b = t.in();
    auto d = t.div(t.sub(a, b), t.add_scalar(t.mul(b, b), 1.0f));
    auto r = t.leaky_relu(t.relu(d), 0.2f);
    return t.mul(r, t.exp(t.mul_scalar(a, 0.5f)));
  });
  return op(in);
}

const Region kRegions[] = {
    {"sigmoid_add", 2, 0, run_sigmoid_add, true},
    {"tanh_add", 2, 0, run_tanh_add, true},
    {"gate_combine", 3, 0, run_gate_combine, true},
    {"lstm_cell_state", 4, 0, run_lstm_cell, true},
    {"mul_tanh", 2, 0, run_mul_tanh, true},
    {"bias_sigmoid", 1, 1, run_bias_sigmoid, true},
    {"bias_tanh", 1, 1, run_bias_tanh, true},
    {"mixed", 2, 0, run_mixed, false},
};

std::vector<Tensor> make_inputs(const Region& r, int64_t n, int64_t f,
                                Rng& rng, Salt mode) {
  std::vector<Tensor> in;
  for (int i = 0; i < r.num_mats; ++i) {
    Tensor t = Tensor::randn({n, f}, rng, 1.2f);
    salt(t, rng, mode);
    in.push_back(t);
  }
  for (int i = 0; i < r.num_bias; ++i) {
    Tensor t = Tensor::randn({f}, rng, 0.7f);
    salt(t, rng, mode);
    in.push_back(t);
  }
  return in;
}

const Salt kSalts[] = {Salt::kNone, Salt::kNan, Salt::kInf};

// Odd widths leave SIMD remainder lanes and straddle the interpreter's
// block size (kEwBlock = 64); 64/65 hit the exact-block and block+1 edges.
// The last four shapes have element counts that are multiples of neither 8
// nor 64: one smaller than a vector, and one past the parallel grain, so
// lane chunks split blocks at odd offsets too.
const std::pair<int64_t, int64_t> kShapes[] = {
    {33, 1}, {33, 7}, {33, 13}, {33, 64}, {33, 65},
    {1, 3},  {5, 13}, {19, 17}, {301, 11}};

TEST(FusionParity, ForwardFuzzNanInfSalted) {
  for (size_t ri = 0; ri < std::size(kRegions); ++ri) {
    const Region& r = kRegions[ri];
    for (auto [n, f] : kShapes) {
      for (Salt mode : kSalts) {
        Rng rng(0x5EED0000u + static_cast<uint64_t>(n * 1009 + f) * 131 +
                ri * 17 + static_cast<uint64_t>(mode));
        std::vector<Tensor> in = make_inputs(r, n, f, rng, mode);
        Tensor fused = r.run(in);
        fu::ReplayScope scope;
        Tensor replay = r.run(in);
        expect_bitwise(fused, replay,
                       std::string(r.name) + " " + std::to_string(n) + "x" +
                           std::to_string(f) +
                           " salt=" + std::to_string(int(mode)));
      }
    }
  }
}

TEST(FusionParity, BackwardFuzzGradientsBitwise) {
  for (size_t ri = 0; ri < std::size(kRegions); ++ri) {
    const Region& r = kRegions[ri];
    for (auto [n, f] : kShapes) {
      for (Salt mode : kSalts) {
      if (mode == Salt::kNan && !r.nan_safe_backward) continue;
      Rng rng(0xBAC0000u + static_cast<uint64_t>(n * 1009 + f) * 733 +
              ri * 17 + static_cast<uint64_t>(mode));
      std::vector<Tensor> base = make_inputs(r, n, f, rng, mode);
      Tensor gseed = Tensor::randn({n, f}, rng, 1.0f);

      // Fresh requires-grad leaves per mode over the same bits.
      auto run_mode = [&](bool fused, std::vector<Tensor>& leaves) {
        fu::ReplayScope scope(!fused);
        leaves.clear();
        for (const Tensor& b : base) {
          Tensor l = b.detach();
          l.set_requires_grad(true);
          leaves.push_back(l);
        }
        Tensor y = r.run(leaves);
        y.backward(gseed);
        return y;
      };
      std::vector<Tensor> lv_on, lv_off;
      Tensor y_on = run_mode(true, lv_on);
      Tensor y_off = run_mode(false, lv_off);

      const std::string tag = std::string(r.name) + " " +
                              std::to_string(n) + "x" + std::to_string(f) +
                              " salt=" + std::to_string(int(mode));
      expect_bitwise(y_on, y_off, tag + " out");
      for (size_t i = 0; i < lv_on.size(); ++i)
        expect_bitwise(lv_on[i].grad(), lv_off[i].grad(),
                       tag + " grad_in" + std::to_string(i));
      }
    }
  }
}

// ---- empty regions -------------------------------------------------------

TEST(FusionEmpty, ZeroRowRegionsMatchReplayForwardAndBackward) {
  // A [0,F] (or [N,0]) region returns an empty output and zero gradients
  // on both paths instead of throwing on the fused one.
  const std::pair<int64_t, int64_t> shapes[] = {{0, 4}, {3, 0}};
  for (auto [rows, cols] : shapes) {
    for (const Region& r : kRegions) {
      std::vector<Tensor> grads[2];
      for (int fused = 0; fused < 2; ++fused) {
        fu::ReplayScope scope(fused == 0);
        const ops::OpProfile before = ops::profile_snapshot();
        Rng rng(61);
        std::vector<Tensor> leaves = make_inputs(r, rows, cols, rng,
                                                 Salt::kNone);
        for (Tensor& l : leaves) l.set_requires_grad(true);
        Tensor y = r.run(leaves);
        ASSERT_EQ(y.rows(), rows) << r.name;
        ASSERT_EQ(y.cols(), cols) << r.name;
        y.backward(Tensor::empty({rows, cols}));
        for (const Tensor& l : leaves) {
          ASSERT_TRUE(l.grad().defined()) << r.name << " fused=" << fused;
          EXPECT_EQ(l.grad().shape(), l.shape()) << r.name;
          for (int64_t i = 0; i < l.grad().numel(); ++i)
            EXPECT_EQ(l.grad().data()[i], 0.0f) << r.name;
          grads[fused].push_back(l.grad());
        }
        EXPECT_EQ((ops::profile_snapshot() - before).fused_ops(), 0u)
            << r.name << ": an empty region launched";
      }
      for (size_t i = 0; i < grads[0].size(); ++i)
        expect_bitwise(grads[1][i], grads[0][i],
                       std::string(r.name) + " empty grad " +
                           std::to_string(i));
    }
  }
}

// ---- finite-difference gradients through the fused path ------------------

TEST(FusionGradcheck, EveryCellRegionMatchesFiniteDifferences) {
  // Parity says the fused and replayed backwards agree; this checks the
  // fused one is the derivative. L = Σ w⊙y for a fixed random w, so the
  // backward seeded with w is ∂L/∂input, compared entrywise against
  // central differences (L accumulated in double).
  const int64_t rows = 3, cols = 5;
  const float eps = 1e-2f, tol = 2e-2f;
  for (const Region& r : kRegions) {
    if (std::string(r.name) == "mixed") continue;  // not a cell region
    Rng rng(0x6AD);
    std::vector<Tensor> leaves = make_inputs(r, rows, cols, rng, Salt::kNone);
    for (Tensor& l : leaves) l.set_requires_grad(true);
    Tensor w = Tensor::randn({rows, cols}, rng, 1.0f);
    r.run(leaves).backward(w);

    auto loss = [&] {
      NoGradGuard ng;
      Tensor y = r.run(leaves);
      double acc = 0.0;
      for (int64_t i = 0; i < y.numel(); ++i)
        acc += static_cast<double>(y.data()[i]) * w.data()[i];
      return acc;
    };
    for (size_t li = 0; li < leaves.size(); ++li) {
      Tensor& x = leaves[li];
      const Tensor grad = x.grad();
      ASSERT_TRUE(grad.defined()) << r.name << " input " << li;
      for (int64_t i = 0; i < x.numel(); ++i) {
        const float orig = x.data()[i];
        x.data()[i] = orig + eps;
        const double up = loss();
        x.data()[i] = orig - eps;
        const double down = loss();
        x.data()[i] = orig;
        const float fd = static_cast<float>((up - down) / (2.0 * eps));
        const float ad = grad.data()[i];
        const float scale = std::max({1.0f, std::abs(fd), std::abs(ad)});
        EXPECT_NEAR(ad, fd, tol * scale)
            << r.name << " input " << li << " entry " << i;
      }
    }
  }
}

// ---- fused GCN bias epilogue ---------------------------------------------

TEST(FusionParity, GcnEpilogueBitwise) {
  // Fusion ON grafts the bias add onto the aggregation kernel's
  // accumulator writeback; OFF runs kernel-then-ops::add_bias. Outputs
  // and every gradient must carry identical bits.
  const uint32_t n = 37;
  Rng rng_e(21);
  EdgeList edges;
  for (int i = 0; i < 140; ++i) {
    uint32_t s = static_cast<uint32_t>(rng_e.next_below(n));
    uint32_t d = static_cast<uint32_t>(rng_e.next_below(n));
    if (s != d) edges.emplace_back(s, d);
  }
  std::vector<float> ew(edges.size());
  for (auto& w : ew) w = rng_e.uniform(0.5f, 1.5f);
  Rng rng_x(22);
  Tensor x = Tensor::randn({n, 5}, rng_x);

  const int64_t gcn_widths[] = {1, 7, 32};
  for (int64_t f : gcn_widths) {
    auto run_mode = [&](bool fused, Tensor* gw, Tensor* gb) {
      fu::ReplayScope scope(!fused);
      Rng rng_w(0x60C0 + static_cast<uint64_t>(f));
      nn::SeastarGCNConv conv(5, f, rng_w);
      StaticTemporalGraph graph(n, edges, 1);
      core::TemporalExecutor exec(graph);
      exec.begin_forward_step(0);
      Tensor xi = x.detach();
      xi.set_requires_grad(true);
      Tensor y = conv.forward(exec, xi, ew.data());
      ops::sum(ops::mul(y, y)).backward();
      exec.verify_drained();
      *gw = conv.parameters()[0].tensor.grad();
      *gb = conv.parameters()[1].tensor.grad();
      return y;
    };
    Tensor gw_on, gb_on, gw_off, gb_off;
    Tensor y_on = run_mode(true, &gw_on, &gb_on);
    Tensor y_off = run_mode(false, &gw_off, &gb_off);
    const std::string tag = "gcn F=" + std::to_string(f);
    expect_bitwise(y_on, y_off, tag + " out");
    expect_bitwise(gw_on, gw_off, tag + " grad_W");
    expect_bitwise(gb_on, gb_off, tag + " grad_b");
  }
}

// ---- one compiled program per region --------------------------------------

TEST(FusionParity, InterleavedShapesMatchReplayBitwise) {
  // One FusedOp runs on two shapes, forwards interleaved, and both
  // backwards run only after the op is gone: the compiled programs do not
  // depend on the shape, and each pending backward keeps them alive.
  const std::pair<int64_t, int64_t> shapes[] = {{9, 13}, {4, 70}};
  std::vector<Tensor> grads[2];
  Tensor outs[2][2];
  for (int fused = 0; fused < 2; ++fused) {
    fu::ReplayScope scope(fused == 0);
    std::vector<Tensor> leaves[2], seeds(2);
    {
      const fu::FusedOp op("test_shapes", [](EwTracer& t) {
        auto a = t.in(), b = t.in();
        auto bias = t.in_bias();
        return t.tanh(t.add_bias(t.mul(t.sigmoid(a), b), bias));
      });
      for (int s = 0; s < 2; ++s) {
        auto [rows, cols] = shapes[s];
        Rng rng(0x5A9E + static_cast<uint64_t>(s));
        leaves[s] = {Tensor::randn({rows, cols}, rng, 1.2f),
                     Tensor::randn({rows, cols}, rng, 1.2f),
                     Tensor::randn({cols}, rng, 0.7f)};
        for (Tensor& l : leaves[s]) l.set_requires_grad(true);
        seeds[s] = Tensor::randn({rows, cols}, rng, 1.0f);
        outs[fused][s] = op(leaves[s]);
      }
    }
    for (int s = 0; s < 2; ++s) {
      outs[fused][s].backward(seeds[s]);
      for (const Tensor& l : leaves[s]) grads[fused].push_back(l.grad());
    }
  }
  for (int s = 0; s < 2; ++s)
    expect_bitwise(outs[1][s], outs[0][s], "shape " + std::to_string(s));
  for (size_t i = 0; i < grads[0].size(); ++i)
    expect_bitwise(grads[1][i], grads[0][i], "grad " + std::to_string(i));
}

// ---- fused launches, counted by the op profile ------------------------------

TEST(FusionLaunch, OffPathLaunchesNothing) {
  fu::ReplayScope replay;
  Rng rng(33);
  Tensor a = Tensor::randn({6, 4}, rng, 1.0f, /*requires_grad=*/true);
  Tensor b = Tensor::randn({6, 4}, rng, 1.0f, /*requires_grad=*/true);
  const ops::OpProfile before = ops::profile_snapshot();
  ops::sum(fu::sigmoid_add(a, b)).backward();
  const ops::OpProfile d = ops::profile_snapshot() - before;
  EXPECT_EQ(d.fused_ops(), 0u);
  EXPECT_GT(d.tape_ops(), 0u) << "the replay ran no tape ops";
}

TEST(FusionLaunch, TrainingEpochRunsFusedBothDirections) {
  // Without this, TrainingParity would also pass if fusion never ran. An
  // evaluate() pass runs the same forwards with no backward, so a training
  // epoch must launch strictly more fused programs than it.
  datasets::StaticLoadOptions o;
  o.scale = 1.0;
  o.num_timestamps = 12;
  o.feature_size = 4;
  auto ds = datasets::load_chickenpox(o);
  StaticTemporalGraph graph(ds.num_nodes, ds.edges, ds.num_timestamps);
  Rng rng(77);
  nn::TGCNRegressor model(ds.signal.feature_size(), 8, rng);
  core::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.sequence_length = 6;
  cfg.lr = 1e-2f;
  cfg.task = core::Task::kNodeRegression;
  core::STGraphTrainer trainer(graph, model, ds.signal, cfg);

  ops::OpProfile before = ops::profile_snapshot();
  trainer.train_epoch();
  const uint64_t train = (ops::profile_snapshot() - before).fused_ops();
  before = ops::profile_snapshot();
  (void)trainer.evaluate();
  const uint64_t eval = (ops::profile_snapshot() - before).fused_ops();
  EXPECT_GT(eval, 0u);
  EXPECT_GT(train, eval) << "no fused backward ran during training";
}

// ---- bias-grad scratch arena ----------------------------------------------

TEST(FusionScratch, BiasGradScratchComesFromArena) {
  // The arena is thread-local, so a fresh thread starts it empty. The first
  // fused backward allocates the one kScratch buffer; every later step is
  // served from the free list: no new scratch residency, and one
  // allocation fewer than that first fused step.
  MemoryTracker& mt = MemoryTracker::instance();
  const std::size_t scratch_before = mt.current_bytes(MemCategory::kScratch);
  std::size_t scratch_warm = 0, scratch_steady = 0;
  uint64_t warm_allocs = 0;
  std::vector<uint64_t> steady_allocs;
  std::thread([&] {
    Rng rng(51);
    Tensor x = Tensor::randn({16, 8}, rng);
    Tensor bias = Tensor::randn({8}, rng, 0.5f, /*requires_grad=*/true);
    auto step = [&] {
      const uint64_t a0 = mt.allocation_count();
      bias.zero_grad();
      ops::sum(fu::bias_sigmoid(x, bias)).backward();
      return mt.allocation_count() - a0;
    };
    {
      fu::ReplayScope replay;
      (void)step();  // creates bias.grad without touching the arena
    }
    warm_allocs = step();
    scratch_warm = mt.current_bytes(MemCategory::kScratch);
    for (int i = 0; i < 3; ++i) steady_allocs.push_back(step());
    scratch_steady = mt.current_bytes(MemCategory::kScratch);
  }).join();
  EXPECT_GE(scratch_warm, scratch_before + 16 * 8 * sizeof(float))
      << "bias-grad scratch is not tracked as kScratch";
  EXPECT_EQ(scratch_steady, scratch_warm) << "scratch residency grew";
  for (uint64_t n : steady_allocs)
    EXPECT_EQ(n + 1, warm_allocs) << "a steady step allocated fresh scratch";
}

// ---- end-to-end training parity ------------------------------------------

/// Train the same model twice from identical seeds — once fused, once
/// replayed — and require bit-identical losses, parameters, and final
/// gradients. This is the PR's headline contract.
template <typename MakeModel>
void training_parity(const char* name, MakeModel make_model) {
  datasets::StaticLoadOptions o;
  o.scale = 1.0;
  o.num_timestamps = 16;
  o.feature_size = 4;
  auto ds = datasets::load_chickenpox(o);
  core::TrainConfig cfg;
  cfg.epochs = 3;
  cfg.sequence_length = 6;
  cfg.lr = 1e-2f;
  cfg.task = core::Task::kNodeRegression;

  auto run_mode = [&](bool fused, std::vector<double>* losses,
                      std::vector<nn::Parameter>* params) {
    fu::ReplayScope scope(!fused);
    StaticTemporalGraph graph(ds.num_nodes, ds.edges, ds.num_timestamps);
    Rng rng(977);
    auto model = make_model(ds.signal.feature_size(), rng);
    core::STGraphTrainer trainer(graph, *model, ds.signal, cfg);
    for (uint32_t e = 0; e < cfg.epochs; ++e)
      losses->push_back(trainer.train_epoch().loss);
    *params = model->parameters();
  };

  std::vector<double> loss_on, loss_off;
  std::vector<nn::Parameter> p_on, p_off;
  run_mode(true, &loss_on, &p_on);
  run_mode(false, &loss_off, &p_off);

  ASSERT_EQ(loss_on.size(), loss_off.size());
  EXPECT_EQ(std::memcmp(loss_on.data(), loss_off.data(),
                        sizeof(double) * loss_on.size()),
            0)
      << name << ": loss trajectories differ";
  ASSERT_EQ(p_on.size(), p_off.size());
  for (size_t i = 0; i < p_on.size(); ++i) {
    expect_bitwise(p_on[i].tensor, p_off[i].tensor,
                   std::string(name) + " param " + p_on[i].name);
    expect_bitwise(p_on[i].tensor.grad(), p_off[i].tensor.grad(),
                   std::string(name) + " grad " + p_on[i].name);
  }
}

TEST(TrainingParity, TgcnFusedMatchesUnfusedBitwise) {
  training_parity("tgcn", [](int64_t in, Rng& rng) {
    return std::make_unique<nn::TGCNRegressor>(in, 8, rng);
  });
}

TEST(TrainingParity, GConvGruFusedMatchesUnfusedBitwise) {
  training_parity("gconv_gru", [](int64_t in, Rng& rng) {
    return std::make_unique<nn::GConvGRURegressor>(in, 8, 2, rng);
  });
}

TEST(TrainingParity, GConvLstmFusedMatchesUnfusedBitwise) {
  training_parity("gconv_lstm", [](int64_t in, Rng& rng) {
    return std::make_unique<nn::GConvLSTMRegressor>(in, 8, 2, rng);
  });
}

}  // namespace
}  // namespace stgraph
