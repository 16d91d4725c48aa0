// Autograd tests: numerical gradient checks against central finite
// differences for every differentiable op, engine ordering/accumulation
// semantics, and NoGradGuard behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "autograd/engine.hpp"
#include "runtime/memory_tracker.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

// Central-difference gradient of scalar_fn w.r.t. x, compared entrywise to
// the autograd gradient. scalar_fn must rebuild the graph each call.
void check_gradient(Tensor& x,
                    const std::function<Tensor()>& scalar_fn,
                    float eps = 1e-2f, float tol = 2e-2f) {
  x.zero_grad();
  Tensor loss = scalar_fn();
  loss.backward();
  Tensor grad = x.grad();
  ASSERT_TRUE(grad.defined());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    const float up = scalar_fn().item();
    x.data()[i] = orig - eps;
    const float down = scalar_fn().item();
    x.data()[i] = orig;
    const float fd = (up - down) / (2 * eps);
    const float ad = grad.at(i);
    const float scale = std::max({1.0f, std::abs(fd), std::abs(ad)});
    EXPECT_NEAR(ad, fd, tol * scale) << "entry " << i;
  }
}

struct OpCase {
  const char* name;
  std::function<Tensor(const Tensor&)> fn;  // builds a non-scalar output
};

// GoogleTest prints the parameter into each discovered ctest name. Without
// this it dumps the raw bytes, including the name pointer, so the names would
// change with every build and every address-space layout.
void PrintTo(const OpCase& c, std::ostream* os) { *os << c.name; }

class UnaryGradient : public ::testing::TestWithParam<OpCase> {};

TEST_P(UnaryGradient, MatchesFiniteDifference) {
  Rng rng(42);
  Tensor x = Tensor::randn({3, 4}, rng, 0.8f, /*requires_grad=*/true);
  const auto& op = GetParam().fn;
  check_gradient(x, [&] { return ops::sum(op(x)); });
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradient,
    ::testing::Values(
        OpCase{"sigmoid", [](const Tensor& x) { return ops::sigmoid(x); }},
        OpCase{"tanh", [](const Tensor& x) { return ops::tanh_op(x); }},
        OpCase{"leaky_relu",
               [](const Tensor& x) { return ops::leaky_relu(x, 0.1f); }},
        OpCase{"exp", [](const Tensor& x) { return ops::exp_op(x); }},
        OpCase{"mul_scalar",
               [](const Tensor& x) { return ops::mul_scalar(x, -1.7f); }},
        OpCase{"add_scalar",
               [](const Tensor& x) { return ops::add_scalar(x, 0.3f); }},
        OpCase{"one_minus", [](const Tensor& x) { return ops::one_minus(x); }},
        OpCase{"mul_self", [](const Tensor& x) { return ops::mul(x, x); }},
        OpCase{"reshape",
               [](const Tensor& x) { return ops::reshape(x, {4, 3}); }},
        OpCase{"slice_cols",
               [](const Tensor& x) { return ops::slice_cols(x, 1, 3); }},
        OpCase{"slice_rows",
               [](const Tensor& x) { return ops::slice_rows(x, 0, 2); }},
        OpCase{"row_sum", [](const Tensor& x) { return ops::row_sum(x); }},
        OpCase{"gather_rows",
               [](const Tensor& x) {
                 return ops::gather_rows(x, {0, 2, 2, 1});
               }},
        OpCase{"cat_with_const",
               [](const Tensor& x) {
                 return ops::cat_cols(x, Tensor::ones({3, 2}));
               }}),
    [](const ::testing::TestParamInfo<OpCase>& info) {
      return info.param.name;
    });

TEST(Gradient, AddBothOperands) {
  Rng rng(1);
  Tensor a = Tensor::randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::randn({2, 3}, rng, 1.0f, true);
  check_gradient(a, [&] { return ops::sum(ops::add(a, b)); });
  check_gradient(b, [&] { return ops::sum(ops::add(a, b)); });
}

TEST(Gradient, SubBothOperands) {
  Rng rng(2);
  Tensor a = Tensor::randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::randn({2, 3}, rng, 1.0f, true);
  check_gradient(b, [&] { return ops::sum(ops::sub(a, b)); });
}

TEST(Gradient, MulBothOperands) {
  Rng rng(3);
  Tensor a = Tensor::randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::randn({2, 3}, rng, 1.0f, true);
  check_gradient(a, [&] { return ops::sum(ops::mul(a, b)); });
  check_gradient(b, [&] { return ops::sum(ops::mul(a, b)); });
}

TEST(Gradient, AddBias) {
  Rng rng(4);
  Tensor x = Tensor::randn({3, 4}, rng, 1.0f, true);
  Tensor b = Tensor::randn({4}, rng, 1.0f, true);
  // Weighted sum so bias grads differ per column.
  Tensor w = Tensor::randn({3, 4}, rng);
  auto fn = [&] { return ops::sum(ops::mul(ops::add_bias(x, b), w)); };
  check_gradient(x, fn);
  check_gradient(b, fn);
}

class MatmulGradient
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(MatmulGradient, AllTransposeVariants) {
  const auto [ta, tb] = GetParam();
  Rng rng(5);
  Tensor a = Tensor::randn(ta ? Shape{3, 2} : Shape{2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::randn(tb ? Shape{4, 3} : Shape{3, 4}, rng, 1.0f, true);
  Tensor w = Tensor::randn({2, 4}, rng);  // weights the output entries
  auto fn = [&] { return ops::sum(ops::mul(ops::matmul(a, b, ta, tb), w)); };
  check_gradient(a, fn);
  check_gradient(b, fn);
}

INSTANTIATE_TEST_SUITE_P(Variants, MatmulGradient,
                         ::testing::Values(std::pair{false, false},
                                           std::pair{true, false},
                                           std::pair{false, true},
                                           std::pair{true, true}));

TEST(Gradient, MseLoss) {
  Rng rng(6);
  Tensor p = Tensor::randn({3, 2}, rng, 1.0f, true);
  Tensor t = Tensor::randn({3, 2}, rng, 1.0f);
  check_gradient(p, [&] { return ops::mse_loss(p, t); });
}

TEST(Gradient, BceWithLogits) {
  Rng rng(7);
  Tensor z = Tensor::randn({6}, rng, 1.5f, true);
  Tensor y = Tensor::from_vector({1, 0, 1, 1, 0, 0}, {6});
  check_gradient(z, [&] { return ops::bce_with_logits_loss(z, y); });
}

TEST(Gradient, ChainedGruStyleCell) {
  // Composite check through a GRU-gate-like expression — exercises the
  // same op chain the TGCN cell builds.
  Rng rng(8);
  Tensor x = Tensor::randn({4, 3}, rng, 0.5f, true);
  Tensor h = Tensor::randn({4, 3}, rng, 0.5f, true);
  auto fn = [&] {
    Tensor z = ops::sigmoid(ops::add(x, h));
    Tensor cand = ops::tanh_op(ops::mul(x, h));
    Tensor out = ops::add(ops::mul(z, h), ops::mul(ops::one_minus(z), cand));
    return ops::sum(out);
  };
  check_gradient(x, fn, 1e-2f, 3e-2f);
  check_gradient(h, fn, 1e-2f, 3e-2f);
}

TEST(Engine, GradientsAccumulateAcrossBackwardCalls) {
  Tensor x = Tensor::ones({2}, true);
  Tensor loss1 = ops::sum(ops::mul_scalar(x, 2.0f));
  loss1.backward();
  Tensor loss2 = ops::sum(ops::mul_scalar(x, 3.0f));
  loss2.backward();
  EXPECT_EQ(x.grad().at(0), 5.0f);
  x.zero_grad();
  EXPECT_EQ(x.grad().at(0), 0.0f);
}

TEST(Engine, DiamondDependencyAccumulatesOnce) {
  // y = x*x + x*x reuses the same intermediate twice.
  Tensor x = Tensor::full({1}, 3.0f, true);
  Tensor sq = ops::mul(x, x);
  Tensor y = ops::add(sq, sq);
  y.backward();
  EXPECT_NEAR(x.grad().item(), 12.0f, 1e-5);  // d(2x²)/dx = 4x
}

TEST(Engine, BackwardRequiresScalarWithoutSeed) {
  Tensor x = Tensor::ones({2, 2}, true);
  Tensor y = ops::mul_scalar(x, 2.0f);
  EXPECT_THROW(y.backward(), StgError);
  y.backward(Tensor::ones({2, 2}));
  EXPECT_EQ(x.grad().at(0), 2.0f);
}

TEST(Engine, LeafWithoutGradFnAccumulatesDirectly) {
  Tensor x = Tensor::ones({2}, true);
  x.backward(Tensor::from_vector({5, 7}, {2}));
  EXPECT_EQ(x.grad().at(1), 7.0f);
}

TEST(Engine, NoGradGuardDisablesTaping) {
  Tensor x = Tensor::ones({2}, true);
  {
    NoGradGuard ng;
    Tensor y = ops::mul_scalar(x, 2.0f);
    EXPECT_FALSE(y.requires_grad());
    EXPECT_EQ(y.impl()->grad_fn, nullptr);
  }
  Tensor y = ops::mul_scalar(x, 2.0f);
  EXPECT_TRUE(y.requires_grad());
}

TEST(Engine, NonRequiringInputsGetNoGradient) {
  Tensor a = Tensor::ones({2}, true);
  Tensor b = Tensor::ones({2});  // no grad
  Tensor y = ops::sum(ops::mul(a, b));
  y.backward();
  EXPECT_TRUE(a.grad().defined());
  EXPECT_FALSE(b.grad().defined());
}

TEST(Engine, SetRequiresGradOnNonLeafThrows) {
  Tensor x = Tensor::ones({2}, true);
  Tensor y = ops::mul_scalar(x, 2.0f);
  EXPECT_THROW(y.set_requires_grad(true), StgError);
}

TEST(Engine, FirstLeafContributionStoresPlusZeroForMinusZero) {
  // The first contribution is written as 0 + g into an unfilled buffer,
  // which is what a zero fill followed by += stored: -0 becomes +0.
  Tensor x = Tensor::ones({2}, true);
  x.backward(Tensor::from_vector({-0.0f, -1.5f}, {2}));
  EXPECT_FALSE(std::signbit(x.grad().at(0)));
  EXPECT_EQ(x.grad().at(1), -1.5f);
}

// A node whose VJP scales grad_out by `k` into one fresh tensor.
Tensor scale_node(const Tensor& in, float k) {
  Tensor out = Tensor::empty(in.shape());
  for (int64_t i = 0; i < in.numel(); ++i) out.data()[i] = k * in.at(i);
  auto node = std::make_shared<autograd::LambdaNode>(
      "scale", [k](const Tensor& g) {
        Tensor gi = Tensor::empty(g.shape());
        for (int64_t i = 0; i < g.numel(); ++i) gi.data()[i] = k * g.at(i);
        return std::vector<Tensor>{gi};
      });
  node->add_input(in);
  node->set_output(out);
  return out;
}

TEST(Autograd, UniquelyOwnedGradientIsNotCopied) {
  // x → K scale nodes. Each VJP allocates its one output, which the
  // engine must take over as the next node's pending gradient; only the
  // caller's seed (still held here) is copied, and the leaf's .grad is
  // the one other allocation.
  constexpr int kNodes = 4;
  Tensor x = Tensor::full({4, 3}, 1.0f, true);
  Tensor y = x;
  for (int i = 0; i < kNodes; ++i) y = scale_node(y, 2.0f);
  const Tensor seed = Tensor::ones({4, 3});
  const uint64_t before = MemoryTracker::instance().allocation_count();
  y.backward(seed);
  const uint64_t allocs =
      MemoryTracker::instance().allocation_count() - before;
  EXPECT_EQ(allocs, static_cast<uint64_t>(kNodes + 2));
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x.grad().at(i), 16.0f);
  for (int64_t i = 0; i < seed.numel(); ++i) EXPECT_EQ(seed.at(i), 1.0f);
}

TEST(Autograd, AliasedGradientIsNeverMutated) {
  // u = 2x and w = 3x feed two nodes. The later one (processed first)
  // returns a tensor this test still holds, for both inputs; the earlier
  // one returns one fresh tensor for both inputs. Both pending buffers
  // then receive a second contribution, added in place: the held tensor
  // must come out of backward bit-unchanged and the gradients exact.
  Tensor x = Tensor::from_vector({1, 2, 3, 4}, {2, 2}, true);
  Tensor u = ops::mul_scalar(x, 2.0f);
  Tensor w = ops::mul_scalar(x, 3.0f);
  const std::vector<float> held_vals = {0.5f, -1.0f, 2.0f, 0.25f};
  const Tensor held = Tensor::from_vector(held_vals, {2, 2});
  auto two_input_node = [&](const char* name, autograd::LambdaNode::Fn fn) {
    Tensor out = Tensor::zeros({2, 2});
    auto node = std::make_shared<autograd::LambdaNode>(name, std::move(fn));
    node->add_input(u);
    node->add_input(w);
    node->set_output(out);
    return out;
  };
  Tensor a = two_input_node("fresh_for_both", [](const Tensor&) {
    Tensor t = Tensor::from_vector({1, 1, 1, 1}, {2, 2});
    return std::vector<Tensor>{t, t};
  });
  Tensor b = two_input_node("held_for_both", [held](const Tensor&) {
    return std::vector<Tensor>{held, held};
  });
  ops::sum(ops::add(a, b)).backward();
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(held.at(i), held_vals[i]) << "held tensor mutated at " << i;
    const float g = held_vals[i] + 1.0f;
    EXPECT_EQ(x.grad().at(i), 0.0f + 2.0f * g + 3.0f * g) << i;
  }
}

}  // namespace
}  // namespace stgraph
