// Portable SIMD layer for the specialized kernel engine — the CPU analogue
// of the CUDA vector width the paper's generated kernels get for free from
// warp lanes. One instruction-set backend is selected at compile time
// (AVX2+FMA on x86-64, NEON on arm64, a width-1 scalar fallback elsewhere),
// and each primitive has one instantiation, against NativeOps. A
// -DSTGRAPH_NATIVE_ARCH=OFF build has no vector ISA, so NativeOps is
// ScalarOps there: that build is the scalar backend.
//
// Parity contract: `madd` is REQUIRED to be an unfused multiply-then-add
// (never an FMA) so that every lane of the aggregation engine performs
// exactly the IEEE operation sequence of its scalar reference kernel — the
// fuzz suite asserts bitwise identity between the two paths, which a fused
// madd would break. `fma` is the opposite by design: one correctly rounded
// a*b+acc on every backend (scalar std::fmaf included), so a chain of them
// has the same bits at every width. The GEMM kernel and the ewmath
// activations (tensor/ewmath.cpp) use it.
//
// The ops the ewmath activations and the fused elementwise interpreter use
// are lane-exact too: add/sub/mul/div are single IEEE operations, round is
// round-half-to-even, comparisons are ordered (false on NaN, like scalar
// `<` / `>=`), blend selects, and neg/abs/copysign touch only the sign bit.
// Code written once as a template over these ops yields the same bits
// through ScalarOps and through every vector backend.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__ARM_FEATURE_FMA)
#include <arm_neon.h>
#endif

namespace stgraph::simd {

/// Width-1 backend: the specialization grid compiled against plain floats.
/// It is NativeOps when no vector ISA is available. On every build it is
/// also the one-lane step inside the templates: ewmath's scalar sigmoid/tanh
/// entry points and the fused interpreter's block tails.
struct ScalarOps {
  static constexpr uint32_t kWidth = 1;
  using vf = float;
  using vu = uint32_t;
  static vf zero() { return 0.0f; }
  static vf set1(float x) { return x; }
  static vf load(const float* p) { return *p; }
  static void store(float* p, vf v) { *p = v; }
  static vf add(vf a, vf b) { return a + b; }
  static vf sub(vf a, vf b) { return a - b; }
  static vf mul(vf a, vf b) { return a * b; }
  static vf div(vf a, vf b) { return a / b; }
  /// Sign-bit flip (C unary minus; flips a NaN's sign too).
  static vf neg(vf a) { return -a; }
  static vf abs(vf a) { return std::fabs(a); }
  /// |mag| with the sign bit of `sgn`.
  static vf copysign(vf mag, vf sgn) { return std::copysign(mag, sgn); }
  /// acc + a*b, deliberately unfused (see header comment).
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return std::fmaf(a, b, acc); }
  static vf max(vf a, vf b) { return a > b ? a : b; }
  /// Round half to even (the default rounding mode).
  static vf round(vf a) { return std::nearbyint(a); }
  /// Float → int32 (two's complement in a vu lane) of an integral value
  /// in int32 range; other inputs are undefined.
  static vu cvt_i32(vf a) {
    return static_cast<uint32_t>(static_cast<int32_t>(a));
  }
  /// 2^n for an int32 lane n in [-126, 127]: n + 127 shifted into the
  /// exponent field.
  static vf pow2i(vu n) {
    const uint32_t bits = (n + 127u) << 23;
    vf out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }
  /// Lane mask with a > b (ordered: false on NaN, like scalar `>`).
  static vu cmp_gt(vf a, vf b) { return a > b ? 0xFFFFFFFFu : 0u; }
  /// Ordered a >= b and a < b masks (false on NaN).
  static vu cmp_ge(vf a, vf b) { return a >= b ? 0xFFFFFFFFu : 0u; }
  static vu cmp_lt(vf a, vf b) { return a < b ? 0xFFFFFFFFu : 0u; }
  /// mask ? b : a, per lane.
  static vf blend(vf a, vf b, vu mask) { return mask ? b : a; }
};

#if defined(__AVX2__) && defined(__FMA__)

/// 8-lane f32 backend (AVX2). Masks are carried as __m256i full-lane masks.
struct AvxOps {
  static constexpr uint32_t kWidth = 8;
  using vf = __m256;
  using vu = __m256i;
  static vf zero() { return _mm256_setzero_ps(); }
  static vf set1(float x) { return _mm256_set1_ps(x); }
  static vf load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, vf v) { _mm256_storeu_ps(p, v); }
  static vf add(vf a, vf b) { return _mm256_add_ps(a, b); }
  static vf sub(vf a, vf b) { return _mm256_sub_ps(a, b); }
  static vf mul(vf a, vf b) { return _mm256_mul_ps(a, b); }
  static vf div(vf a, vf b) { return _mm256_div_ps(a, b); }
  static vf neg(vf a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static vf abs(vf a) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), a); }
  static vf copysign(vf mag, vf sgn) {
    const vf sign = _mm256_set1_ps(-0.0f);
    return _mm256_or_ps(_mm256_andnot_ps(sign, mag),
                        _mm256_and_ps(sign, sgn));
  }
  /// acc + a*b, deliberately unfused (see header comment).
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return _mm256_fmadd_ps(a, b, acc); }
  static vf max(vf a, vf b) { return _mm256_max_ps(a, b); }
  static vf round(vf a) {
    return _mm256_round_ps(a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static vu cvt_i32(vf a) { return _mm256_cvtps_epi32(a); }
  static vf pow2i(vu n) {
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
  }
  static vu cmp_gt(vf a, vf b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GT_OQ));
  }
  static vu cmp_ge(vf a, vf b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GE_OQ));
  }
  static vu cmp_lt(vf a, vf b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_LT_OQ));
  }
  static vf blend(vf a, vf b, vu mask) {
    return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
  }
};
using NativeOps = AvxOps;
inline constexpr const char* kArchName = "avx2";

#elif defined(__ARM_NEON) && defined(__ARM_FEATURE_FMA)

/// 4-lane f32 backend (NEON).
struct NeonOps {
  static constexpr uint32_t kWidth = 4;
  using vf = float32x4_t;
  using vu = uint32x4_t;
  static vf zero() { return vdupq_n_f32(0.0f); }
  static vf set1(float x) { return vdupq_n_f32(x); }
  static vf load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, vf v) { vst1q_f32(p, v); }
  static vf add(vf a, vf b) { return vaddq_f32(a, b); }
  static vf sub(vf a, vf b) { return vsubq_f32(a, b); }
  static vf mul(vf a, vf b) { return vmulq_f32(a, b); }
  static vf div(vf a, vf b) { return vdivq_f32(a, b); }
  static vf neg(vf a) { return vnegq_f32(a); }
  static vf abs(vf a) { return vabsq_f32(a); }
  static vf copysign(vf mag, vf sgn) {
    return vbslq_f32(vdupq_n_u32(0x80000000u), sgn, mag);
  }
  /// acc + a*b, deliberately unfused (see header comment) — NOT vfmaq.
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return vfmaq_f32(acc, a, b); }
  static vf max(vf a, vf b) { return vmaxq_f32(a, b); }
  static vf round(vf a) { return vrndnq_f32(a); }
  static vu cvt_i32(vf a) { return vreinterpretq_u32_s32(vcvtnq_s32_f32(a)); }
  static vf pow2i(vu n) {
    return vreinterpretq_f32_u32(
        vshlq_n_u32(vaddq_u32(n, vdupq_n_u32(127u)), 23));
  }
  static vu cmp_gt(vf a, vf b) { return vcgtq_f32(a, b); }
  static vu cmp_ge(vf a, vf b) { return vcgeq_f32(a, b); }
  static vu cmp_lt(vf a, vf b) { return vcltq_f32(a, b); }
  static vf blend(vf a, vf b, vu mask) { return vbslq_f32(mask, b, a); }
};
using NativeOps = NeonOps;
inline constexpr const char* kArchName = "neon";

#else

using NativeOps = ScalarOps;
inline constexpr const char* kArchName = "scalar";

#endif

/// Compile-time ISA of the native backend ("avx2", "neon" or "scalar").
inline const char* arch_name() { return kArchName; }

}  // namespace stgraph::simd
