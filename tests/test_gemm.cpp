// GEMM parity fuzz: ops::matmul must equal a naive k-ascending std::fmaf
// triple loop bit for bit, for every transpose case, at odd and tall-skinny
// sizes that hit every micro-tile, row tail and column tail, with zeros
// salted into A and with NaN / Inf salted into separate instances. The
// oracle lives here only. ctest reruns the binary at 1 and 8 lanes and
// under STGRAPH_SIMD=off, so the serial schedule, an oversubscribed pool
// and the scalar backend are held to the same oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

const int64_t kSizes[] = {0, 1, 3, 7, 8, 9, 17, 33, 65, 1068};

/// C = op(A)·op(B) as one fma chain per element, k ascending from +0.
std::vector<float> oracle(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t n = tb ? b.size(0) : b.size(1);
  const int64_t lda = a.size(1), ldb = b.size(1);
  const float* pa = a.data();
  const float* pb = b.data();
  std::vector<float> c(static_cast<std::size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float s = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = ta ? pa[kk * lda + i] : pa[i * lda + kk];
        const float bv = tb ? pb[j * ldb + kk] : pb[kk * ldb + j];
        s = std::fmaf(av, bv, s);
      }
      c[i * n + j] = s;
    }
  }
  return c;
}

/// Normal values, a quarter of them replaced by exact zeros when `zeros`.
Tensor random(int64_t rows, int64_t cols, Rng& rng, bool zeros) {
  Tensor t = Tensor::empty({rows, cols});
  float* p = t.data();
  for (int64_t i = 0; i < rows * cols; ++i) {
    p[i] = zeros && rng.next_below(4) == 0 ? 0.0f : rng.normal();
  }
  return t;
}

void expect_bitwise(const Tensor& a, const Tensor& b, bool ta, bool tb,
                    const std::string& what) {
  NoGradGuard ng;
  const Tensor c = ops::matmul(a, b, ta, tb);
  const std::vector<float> want = oracle(a, b, ta, tb);
  ASSERT_EQ(static_cast<std::size_t>(c.numel()), want.size()) << what;
  if (want.empty()) return;
  EXPECT_EQ(std::memcmp(c.data(), want.data(), want.size() * sizeof(float)),
            0)
      << what;
}

std::string label(int64_t m, int64_t k, int64_t n, bool ta, bool tb) {
  return "m=" + std::to_string(m) + " k=" + std::to_string(k) +
         " n=" + std::to_string(n) + " ta=" + std::to_string(ta) +
         " tb=" + std::to_string(tb);
}

/// Runs `fn(m, k, n, ta, tb)` over every size triple with at most one
/// dimension at the tall end, and all four transpose cases.
template <typename Fn>
void for_each_case(Fn&& fn) {
  const int64_t tall = kSizes[std::size(kSizes) - 1];
  for (int64_t m : kSizes)
    for (int64_t k : kSizes)
      for (int64_t n : kSizes) {
        if ((m == tall) + (k == tall) + (n == tall) > 1) continue;
        for (int t = 0; t < 4; ++t) fn(m, k, n, (t & 1) != 0, (t & 2) != 0);
      }
}

TEST(Gemm, MatchesFmaOracleWithZerosSaltedIntoA) {
  Rng rng(11);
  for_each_case([&](int64_t m, int64_t k, int64_t n, bool ta, bool tb) {
    const Tensor a = ta ? random(k, m, rng, true) : random(m, k, rng, true);
    const Tensor b = tb ? random(n, k, rng, false) : random(k, n, rng, false);
    expect_bitwise(a, b, ta, tb, label(m, k, n, ta, tb));
  });
}

TEST(Gemm, MatchesFmaOracleWithNanOrInfSalted) {
  const float kPoison[] = {std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::infinity()};
  Rng rng(12);
  for_each_case([&](int64_t m, int64_t k, int64_t n, bool ta, bool tb) {
    if (m * k * n == 0) return;
    for (float poison : kPoison) {
      for (int into_b = 0; into_b < 2; ++into_b) {
        Tensor a = ta ? random(k, m, rng, true) : random(m, k, rng, true);
        Tensor b = tb ? random(n, k, rng, false) : random(k, n, rng, false);
        Tensor& t = into_b ? b : a;
        t.data()[rng.next_below(static_cast<uint64_t>(t.numel()))] = poison;
        expect_bitwise(a, b, ta, tb,
                       label(m, k, n, ta, tb) + (into_b ? " B" : " A") +
                           "=" + std::to_string(poison));
      }
    }
  });
}

// A NaN or Inf weight must reach the output even where the input entry it
// multiplies is zero (0·NaN and 0·Inf are NaN): a GEMM that skips zero
// inputs would hide a poisoned weight from the numerical guards.
TEST(Gemm, NonFiniteWeightReachesOutputThroughZeroInput) {
  NoGradGuard ng;
  Rng rng(13);
  for (float poison : {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity()}) {
    Tensor x = random(37, 16, rng, false);
    for (int64_t i = 0; i < 37; ++i) x.data()[i * 16 + 5] = 0.0f;
    Tensor w = random(16, 32, rng, false);
    w.data()[5 * 32 + 9] = poison;
    const Tensor y = ops::matmul(x, w);
    for (int64_t i = 0; i < 37; ++i) {
      EXPECT_TRUE(std::isnan(y.at(i, 9))) << "row " << i;
      EXPECT_TRUE(std::isfinite(y.at(i, 8))) << "row " << i;
    }
    // The weight-gradient product of the backward pass: Xᵀ·g with the
    // poisoned entry in g and only zeros in the X column it meets.
    Tensor g = random(37, 32, rng, false);
    g.data()[3 * 32 + 9] = poison;
    Tensor xz = random(37, 16, rng, false);
    for (int64_t r = 0; r < 16; ++r) xz.data()[3 * 16 + r] = 0.0f;
    const Tensor gw = ops::matmul(xz, g, /*trans_a=*/true, /*trans_b=*/false);
    for (int64_t r = 0; r < 16; ++r) {
      EXPECT_TRUE(std::isnan(gw.at(r, 9))) << "row " << r;
    }
  }
}

TEST(Gemm, EmptyInnerDimensionGivesZeros) {
  NoGradGuard ng;
  const Tensor a = Tensor::empty({33, 0});
  const Tensor b = Tensor::empty({0, 17});
  const Tensor c = ops::matmul(a, b);
  ASSERT_EQ(c.numel(), 33 * 17);
  for (int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_EQ(c.at(i), 0.0f);
    EXPECT_FALSE(std::signbit(c.at(i)));
  }
}

}  // namespace
}  // namespace stgraph
