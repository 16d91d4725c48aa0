// The one definition of sigmoid and tanh (see tensor/ewmath.hpp). Built with
// -ffp-contract=off (src/CMakeLists.txt): every fma below is explicit, and
// no mul+add pair may be contracted in one instantiation only.
#include "tensor/ewmath.hpp"

#include "runtime/simd.hpp"

namespace stgraph::ewmath {
namespace {

/// e^x for x <= 0 (Cephes expf): n = round(x·log2 e), r = x − n·ln2 in two
/// fma steps (ln2 split hi/lo), a degree-5 polynomial for e^r on
/// |r| <= ln2/2, then the 2^n scale. The scale is two multiplies, by
/// 2^(n+64) and 2^-64: the first is exact (the product stays normal for
/// every n >= -150), so a subnormal result is rounded once, by the second.
/// Below ln(2^-150) the result rounds to +0; NaN propagates.
template <class O>
typename O::vf exp_neg(typename O::vf x) {
  using vf = typename O::vf;
  const vf lo = O::set1(-103.972076f);  // the float nearest ln(2^-150)
  // Clamped copy for the exponent (NaN → lo keeps cvt_i32 in range).
  const vf xc = O::blend(lo, x, O::cmp_ge(x, lo));
  const vf n = O::round(O::mul(xc, O::set1(1.44269504088896341f)));
  vf r = O::fma(n, O::set1(-0.693359375f), x);
  r = O::fma(n, O::set1(2.12194440e-4f), r);
  vf p = O::set1(1.9875691500e-4f);
  p = O::fma(p, r, O::set1(1.3981999507e-3f));
  p = O::fma(p, r, O::set1(8.3334519073e-3f));
  p = O::fma(p, r, O::set1(4.1665795894e-2f));
  p = O::fma(p, r, O::set1(1.6666665459e-1f));
  p = O::fma(p, r, O::set1(5.0000001201e-1f));
  vf y = O::add(O::fma(p, O::mul(r, r), r), O::set1(1.0f));
  const typename O::vu n64 = O::cvt_i32(O::add(n, O::set1(64.0f)));
  y = O::mul(O::mul(y, O::pow2i(n64)), O::set1(0x1p-64f));
  return O::blend(y, O::zero(), O::cmp_lt(x, lo));
}

/// e = e^-|x| never overflows; σ = 1/(1+e) for x >= 0, e/(1+e) below.
/// −|x| is 0 − |x| so a NaN input reaches the result with its sign cleared.
template <class O>
typename O::vf sigmoid_t(typename O::vf x) {
  const typename O::vf one = O::set1(1.0f);
  const typename O::vf e = exp_neg<O>(O::sub(O::zero(), O::abs(x)));
  const typename O::vf num = O::blend(e, one, O::cmp_ge(x, O::zero()));
  return O::div(num, O::add(one, e));
}

/// Evaluated on a = |x| and signed at the end, so tanh(−x) = −tanh(x) bit
/// for bit: a < 0.625 takes the Cephes tanhf odd polynomial
/// a + a·z·P(z), z = a²; otherwise (1 − e)/(1 + e) with e = e^-2a.
template <class O>
typename O::vf tanh_t(typename O::vf x) {
  using vf = typename O::vf;
  const vf one = O::set1(1.0f);
  const vf a = O::abs(x);
  const vf z = O::mul(a, a);
  vf p = O::set1(-5.70498872745e-3f);
  p = O::fma(p, z, O::set1(2.06390887954e-2f));
  p = O::fma(p, z, O::set1(-5.37397155531e-2f));
  p = O::fma(p, z, O::set1(1.33314422036e-1f));
  p = O::fma(p, z, O::set1(-3.33332819422e-1f));
  const vf small = O::fma(O::mul(p, z), a, a);
  const vf e = exp_neg<O>(O::mul(a, O::set1(-2.0f)));
  const vf large = O::div(O::sub(one, e), O::add(one, e));
  return O::copysign(O::blend(large, small, O::cmp_lt(a, O::set1(0.625f))),
                     x);
}

}  // namespace

float sigmoid(float v) { return sigmoid_t<simd::ScalarOps>(v); }

float tanh(float v) { return tanh_t<simd::ScalarOps>(v); }

void sigmoid(const float* x, float* y, std::size_t n) {
  using O = simd::NativeOps;
  std::size_t i = 0;
  for (; i + O::kWidth <= n; i += O::kWidth)
    O::store(y + i, sigmoid_t<O>(O::load(x + i)));
  for (; i < n; ++i) y[i] = sigmoid(x[i]);
}

void tanh(const float* x, float* y, std::size_t n) {
  using O = simd::NativeOps;
  std::size_t i = 0;
  for (; i + O::kWidth <= n; i += O::kWidth)
    O::store(y + i, tanh_t<O>(O::load(x + i)));
  for (; i < n; ++i) y[i] = tanh(x[i]);
}

}  // namespace stgraph::ewmath
