// Unit tests for the tensor library: construction, metadata, forward
// semantics of every op (gradients are covered in test_autograd).
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

TEST(Tensor, ZerosOnesFull) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.at(i), 0.0f);
  Tensor o = Tensor::ones({4});
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(o.at(i), 1.0f);
  Tensor f = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(f.at(1, 1), 3.5f);
}

TEST(Tensor, FromVectorRoundTrip) {
  std::vector<float> v{1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::from_vector(v, {2, 3});
  EXPECT_EQ(t.to_vector(), v);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  EXPECT_THROW(Tensor::from_vector(v, {2, 2}), StgError);
}

TEST(Tensor, RankLimits) {
  EXPECT_NO_THROW(Tensor::zeros({}));
  EXPECT_NO_THROW(Tensor::zeros({5}));
  EXPECT_NO_THROW(Tensor::zeros({5, 5}));
  EXPECT_THROW(Tensor::zeros({2, 2, 2}), StgError);
}

TEST(Tensor, ItemRequiresSingleElement) {
  EXPECT_EQ(Tensor::full({1}, 7.0f).item(), 7.0f);
  EXPECT_THROW(Tensor::zeros({2}).item(), StgError);
}

TEST(Tensor, RandnMoments) {
  Rng rng(5);
  Tensor t = Tensor::randn({100, 100}, rng, 2.0f);
  double sum = 0, sq = 0;
  for (int64_t i = 0; i < t.numel(); ++i) {
    sum += t.at(i);
    sq += t.at(i) * t.at(i);
  }
  EXPECT_NEAR(sum / t.numel(), 0.0, 0.1);
  EXPECT_NEAR(sq / t.numel(), 4.0, 0.2);
}

TEST(Tensor, DetachSharesNothing) {
  Tensor a = Tensor::ones({2, 2});
  Tensor d = a.detach();
  d.data()[0] = 9.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(Tensor, ZerosIsZeroOnReusedMemory) {
  // Allocation does not clear memory; zeros() must, even when it gets the
  // block a just-freed tensor filled.
  for (const int64_t n : {int64_t{37}, int64_t{4096}, int64_t{300000}}) {
    { Tensor::full({n}, -3.5f); }
    const Tensor z = Tensor::zeros({n});
    for (int64_t i = 0; i < n; ++i) ASSERT_EQ(z.at(i), 0.0f) << n << " " << i;
  }
}

TEST(Tensor, UndefinedHandleRejectsAccess) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_THROW(t.numel(), StgError);
  EXPECT_THROW(t.data(), StgError);
}

TEST(Ops, AddSubMulElementwise) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector({10, 20, 30, 40}, {2, 2});
  EXPECT_EQ(ops::add(a, b).to_vector(), (std::vector<float>{11, 22, 33, 44}));
  EXPECT_EQ(ops::sub(b, a).to_vector(), (std::vector<float>{9, 18, 27, 36}));
  EXPECT_EQ(ops::mul(a, b).to_vector(), (std::vector<float>{10, 40, 90, 160}));
  EXPECT_THROW(ops::add(a, Tensor::zeros({3})), StgError);
}

TEST(Ops, ScalarOpsAndOneMinus) {
  Tensor a = Tensor::from_vector({1, 2}, {2});
  EXPECT_EQ(ops::add_scalar(a, 1.5f).to_vector(), (std::vector<float>{2.5f, 3.5f}));
  EXPECT_EQ(ops::mul_scalar(a, -2.0f).to_vector(), (std::vector<float>{-2, -4}));
  EXPECT_EQ(ops::one_minus(a).to_vector(), (std::vector<float>{0, -1}));
}

TEST(Ops, AddBiasBroadcastsRows) {
  Tensor x = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::from_vector({10, 20, 30}, {3});
  EXPECT_EQ(ops::add_bias(x, b).to_vector(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
  EXPECT_THROW(ops::add_bias(x, Tensor::zeros({2})), StgError);
}

TEST(Ops, ActivationsPointwise) {
  Tensor x = Tensor::from_vector({-2, 0, 2}, {3});
  Tensor s = ops::sigmoid(x);
  EXPECT_NEAR(s.at(0), 1.0f / (1.0f + std::exp(2.0f)), 1e-6);
  EXPECT_NEAR(s.at(1), 0.5f, 1e-6);
  Tensor t = ops::tanh_op(x);
  EXPECT_NEAR(t.at(2), std::tanh(2.0f), 1e-6);
  Tensor r = ops::relu(x);
  EXPECT_EQ(r.to_vector(), (std::vector<float>{0, 0, 2}));
  Tensor l = ops::leaky_relu(x, 0.1f);
  EXPECT_NEAR(l.at(0), -0.2f, 1e-6);
}

TEST(Ops, SigmoidStableAtExtremes) {
  Tensor x = Tensor::from_vector({-100.0f, 100.0f}, {2});
  Tensor s = ops::sigmoid(x);
  EXPECT_NEAR(s.at(0), 0.0f, 1e-6);
  EXPECT_NEAR(s.at(1), 1.0f, 1e-6);
  EXPECT_FALSE(std::isnan(s.at(0)));
}

TEST(Ops, MatmulPlain) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor b = Tensor::from_vector({7, 8, 9, 10, 11, 12}, {3, 2});
  Tensor c = ops::matmul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.to_vector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(Ops, MatmulTransposeVariants) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  // aᵀ @ b : [3,5]
  Tensor c = ops::matmul(a, b, true, false);
  for (int64_t i = 0; i < 3; ++i)
    for (int64_t j = 0; j < 5; ++j) {
      float want = 0;
      for (int64_t k = 0; k < 4; ++k) want += a.at(k, i) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), want, 1e-4);
    }
  // a @ bᵀ with b2 [5,3]
  Tensor b2 = Tensor::randn({5, 3}, rng);
  Tensor d = ops::matmul(a, b2, false, true);
  for (int64_t i = 0; i < 4; ++i)
    for (int64_t j = 0; j < 5; ++j) {
      float want = 0;
      for (int64_t k = 0; k < 3; ++k) want += a.at(i, k) * b2.at(j, k);
      EXPECT_NEAR(d.at(i, j), want, 1e-4);
    }
}

TEST(Ops, MatmulShapeMismatchThrows) {
  EXPECT_THROW(ops::matmul(Tensor::zeros({2, 3}), Tensor::zeros({2, 3})),
               StgError);
}

TEST(Ops, CatAndSliceCols) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  Tensor b = Tensor::from_vector({5, 6}, {2, 1});
  Tensor c = ops::cat_cols(a, b);
  EXPECT_EQ(c.to_vector(), (std::vector<float>{1, 2, 5, 3, 4, 6}));
  EXPECT_EQ(ops::slice_cols(c, 2, 3).to_vector(), (std::vector<float>{5, 6}));
  EXPECT_EQ(ops::slice_cols(c, 0, 2).to_vector(), a.to_vector());
}

TEST(Ops, SliceRowsAndGather) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {3, 2});
  EXPECT_EQ(ops::slice_rows(a, 1, 3).to_vector(),
            (std::vector<float>{3, 4, 5, 6}));
  Tensor g = ops::gather_rows(a, {2, 0, 2});
  EXPECT_EQ(g.to_vector(), (std::vector<float>{5, 6, 1, 2, 5, 6}));
}

TEST(Ops, Reductions) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4}, {2, 2});
  EXPECT_EQ(ops::sum(a).item(), 10.0f);
  EXPECT_EQ(ops::mean(a).item(), 2.5f);
  EXPECT_EQ(ops::row_sum(a).to_vector(), (std::vector<float>{3, 7}));
}

TEST(Ops, MseLossValue) {
  Tensor p = Tensor::from_vector({1, 2, 3}, {3});
  Tensor t = Tensor::from_vector({1, 4, 6}, {3});
  EXPECT_NEAR(ops::mse_loss(p, t).item(), (0 + 4 + 9) / 3.0f, 1e-6);
}

TEST(Ops, BceWithLogitsMatchesReference) {
  Tensor z = Tensor::from_vector({0.0f, 2.0f, -3.0f}, {3});
  Tensor y = Tensor::from_vector({1.0f, 0.0f, 1.0f}, {3});
  double want = 0;
  for (int i = 0; i < 3; ++i) {
    const double zi = z.at(i), yi = y.at(i);
    const double p = 1.0 / (1.0 + std::exp(-zi));
    want += -(yi * std::log(p) + (1 - yi) * std::log(1 - p));
  }
  EXPECT_NEAR(ops::bce_with_logits_loss(z, y).item(), want / 3.0, 1e-5);
}

TEST(Ops, BceStableAtExtremeLogits) {
  Tensor z = Tensor::from_vector({80.0f, -80.0f}, {2});
  Tensor y = Tensor::from_vector({1.0f, 0.0f}, {2});
  const float loss = ops::bce_with_logits_loss(z, y).item();
  EXPECT_FALSE(std::isnan(loss));
  EXPECT_NEAR(loss, 0.0f, 1e-5);
}

TEST(Ops, ReshapePreservesData) {
  Tensor a = Tensor::from_vector({1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor r = ops::reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.to_vector(), a.to_vector());
  EXPECT_THROW(ops::reshape(a, {4, 2}), StgError);
}

}  // namespace
}  // namespace stgraph
