// ewmath accuracy and lane-parity tests: the one sigmoid/tanh definition
// every path calls (tensor/ewmath.hpp). Checks the accuracy contract
// (within 2 ulp of the correctly rounded value, from a double-precision
// reference, over a dense sweep and over the subnormal-result range),
// exact special values, and memcmp equality between the native-width
// block entry point and the scalar entry point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/ewmath.hpp"
#include "util/rng.hpp"

namespace stgraph {
namespace {

uint32_t bits(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

float from_bits(uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

/// Position on the monotone integer line of floats (±0 both map to 0), so
/// the difference of two keys is their distance in ulps — subnormals
/// included.
int64_t ulp_key(float f) {
  const uint32_t b = bits(f);
  const int64_t mag = static_cast<int64_t>(b & 0x7FFFFFFFu);
  return (b >> 31) ? -mag : mag;
}

int64_t ulp_distance(float a, float b) {
  return std::llabs(ulp_key(a) - ulp_key(b));
}

float sigmoid_ref(float x) {
  return static_cast<float>(1.0 / (1.0 + std::exp(-static_cast<double>(x))));
}

float tanh_ref(float x) {
  return static_cast<float>(std::tanh(static_cast<double>(x)));
}

/// Every `stride`-th float in [-limit, limit], both signs. Bit patterns are
/// log-spaced, so most of a sweep lands on |x| < 2 (tiny x included).
std::vector<float> sweep(float limit, uint32_t stride) {
  std::vector<float> xs;
  for (uint32_t b = 0; b <= bits(limit); b += stride) {
    xs.push_back(from_bits(b));
    xs.push_back(-from_bits(b));
  }
  return xs;
}

/// Max ulp error of both entry points against `ref`; also requires the
/// block entry point to reproduce the scalar entry point bit for bit.
template <typename Scalar, typename Block, typename Ref>
int64_t max_ulp(const std::vector<float>& xs, Scalar scalar, Block block,
                Ref ref, const char* what) {
  std::vector<float> ys(xs.size());
  block(xs.data(), ys.data(), xs.size());
  int64_t worst = 0;
  float worst_x = 0.0f;
  size_t lane_mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float s = scalar(xs[i]);
    if (bits(s) != bits(ys[i])) ++lane_mismatches;
    const int64_t d = ulp_distance(s, ref(xs[i]));
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  ::testing::Test::RecordProperty(what, static_cast<int>(worst));
  EXPECT_EQ(lane_mismatches, 0u) << what << ": block entry vs scalar entry";
  EXPECT_LE(worst, 2) << what << " worst at x=" << worst_x;
  return worst;
}

float sig1(float x) { return ewmath::sigmoid(x); }
float tanh1(float x) { return ewmath::tanh(x); }
void sig_n(const float* x, float* y, size_t n) { ewmath::sigmoid(x, y, n); }
void tanh_n(const float* x, float* y, size_t n) { ewmath::tanh(x, y, n); }

TEST(EwMath, SigmoidWithinTwoUlpDenseSweep) {
  max_ulp(sweep(110.0f, 1021), sig1, sig_n, sigmoid_ref, "sigmoid");
}

TEST(EwMath, TanhWithinTwoUlpDenseSweep) {
  max_ulp(sweep(110.0f, 1021), tanh1, tanh_n, tanh_ref, "tanh");
}

TEST(EwMath, TanhBranchEdgeWithinTwoUlp) {
  // Every float within 2^16 ulps of tanh's polynomial/exp switch at
  // |x| = 0.625, both signs.
  std::vector<float> xs;
  for (uint32_t b = bits(0.625f) - 65536; b <= bits(0.625f) + 65536; ++b) {
    xs.push_back(from_bits(b));
    xs.push_back(-from_bits(b));
  }
  max_ulp(xs, tanh1, tanh_n, tanh_ref, "tanh_edge");
}

TEST(EwMath, SigmoidSubnormalResultsRoundOnce) {
  // x in [-104, -87]: σ(x) ≈ e^x lands in (and below) the subnormal range.
  // Every float there, held to the same 2 ulp (subnormal ulps).
  std::vector<float> xs;
  for (uint32_t b = bits(87.0f); b <= bits(104.0f); ++b)
    xs.push_back(-from_bits(b));
  max_ulp(xs, sig1, sig_n, sigmoid_ref, "sigmoid_subnormal");
  // Both ends of the range: a normal result and a hard +0.
  EXPECT_GT(ewmath::sigmoid(-87.0f), 0.0f);
  EXPECT_TRUE(std::isnormal(ewmath::sigmoid(-87.0f)));
  EXPECT_EQ(bits(ewmath::sigmoid(-104.0f)), 0u);
}

TEST(EwMath, SpecialValuesExact) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(bits(ewmath::sigmoid(0.0f)), bits(0.5f));
  EXPECT_EQ(bits(ewmath::sigmoid(-0.0f)), bits(0.5f));
  EXPECT_EQ(bits(ewmath::sigmoid(inf)), bits(1.0f));
  EXPECT_EQ(bits(ewmath::sigmoid(-inf)), bits(0.0f));
  EXPECT_EQ(bits(ewmath::tanh(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(ewmath::tanh(-0.0f)), bits(-0.0f));
  EXPECT_EQ(bits(ewmath::tanh(inf)), bits(1.0f));
  EXPECT_EQ(bits(ewmath::tanh(-inf)), bits(-1.0f));
  EXPECT_TRUE(std::isnan(ewmath::sigmoid(nan)));
  EXPECT_TRUE(std::isnan(ewmath::sigmoid(-nan)));
  EXPECT_TRUE(std::isnan(ewmath::tanh(nan)));
  EXPECT_TRUE(std::isnan(ewmath::tanh(-nan)));
  // Saturation: no overflow for large |x|, exact limits.
  EXPECT_EQ(ewmath::sigmoid(100.0f), 1.0f);
  EXPECT_EQ(ewmath::sigmoid(-200.0f), 0.0f);
  EXPECT_EQ(ewmath::tanh(50.0f), 1.0f);
  EXPECT_EQ(ewmath::tanh(-50.0f), -1.0f);
}

TEST(EwMath, TanhIsOddBitwise) {
  for (float x : sweep(30.0f, 40009)) {
    EXPECT_EQ(bits(ewmath::tanh(-x)), bits(ewmath::tanh(x)) ^ 0x80000000u)
        << x;
  }
}

TEST(EwMath, NativeLanesMatchScalarEntryBitwise) {
  // Random values salted with every special, at a length that is not a
  // multiple of any vector width and at every start offset, so lanes and
  // tails see each value.
  Rng rng(0xE3A7);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f, -0.0f, inf, -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            -std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::denorm_min(),
                            -103.972076f, -103.97208f, 0.625f, -0.625f};
  std::vector<float> xs(1003);
  for (size_t i = 0; i < xs.size(); ++i)
    xs[i] = rng.normal() * (i % 3 == 0 ? 40.0f : 2.0f);
  for (size_t i = 0; i < std::size(specials); ++i)
    xs[(i * 89) % xs.size()] = specials[i];
  for (size_t off = 0; off < 9; ++off) {
    const size_t n = xs.size() - off;
    std::vector<float> ys(n), ts(n);
    ewmath::sigmoid(xs.data() + off, ys.data(), n);
    ewmath::tanh(xs.data() + off, ts.data(), n);
    for (size_t i = 0; i < n; ++i) {
      const float s = ewmath::sigmoid(xs[off + i]);
      const float t = ewmath::tanh(xs[off + i]);
      ASSERT_EQ(std::memcmp(&s, &ys[i], sizeof(float)), 0)
          << "sigmoid lane " << i << " offset " << off;
      ASSERT_EQ(std::memcmp(&t, &ts[i], sizeof(float)), 0)
          << "tanh lane " << i << " offset " << off;
    }
  }
  // In place (x aliases y).
  std::vector<float> in_place = xs;
  ewmath::sigmoid(in_place.data(), in_place.data(), in_place.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const float s = ewmath::sigmoid(xs[i]);
    ASSERT_EQ(std::memcmp(&s, &in_place[i], sizeof(float)), 0) << i;
  }
}

}  // namespace
}  // namespace stgraph
