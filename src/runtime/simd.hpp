// Portable SIMD layer for the specialized kernel engine — the CPU analogue
// of the CUDA vector width the paper's generated kernels get for free from
// warp lanes. One instruction-set backend is selected at compile time from
// the compiler's target macros:
//
//   backend     lanes  selected when                       HalfOps
//   Avx512Ops   16     __AVX512F__ and __AVX512DQ__         AvxOps
//   AvxOps       8     __AVX2__ and __FMA__ (no AVX-512)    ScalarOps
//   NeonOps      4     __ARM_NEON and __ARM_FEATURE_FMA     ScalarOps
//   ScalarOps    1     anything else                        ScalarOps
//
// Each primitive has one instantiation, against NativeOps. HalfOps is the
// half-width step a primitive may run after its NativeOps vectors and
// before its scalar tail, so an 8-wide row stays vectorized under a 16-lane
// NativeOps; where it is ScalarOps there is no such step. A
// -DSTGRAPH_NATIVE_ARCH=OFF build has no vector ISA, so NativeOps is
// ScalarOps there: that build is the scalar backend. `vu` is always a
// full-lane int vector (all ones or all zeros per lane for a mask).
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
/// entry points, the fused interpreter's block tails and the GEMM's tail
/// columns.
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

/// 8-lane f32 backend (AVX2): NativeOps on AVX2-only hosts, HalfOps under
/// AVX-512. Masks are carried as __m256i full-lane masks.
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
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX2__) && \
    defined(__FMA__)

/// 16-lane f32 backend (AVX-512F/DQ). Compares produce __mmask16 and are
/// widened to full-lane __m512i masks (vpmovm2d) so `vu` means what it means
/// on every backend; blend narrows them back. The round, convert and shift
/// use their zero-masking forms with an all-ones mask: the same result,
/// without the undefined pass-through operand GCC 12 warns about when the
/// unmasked forms are inlined.
struct Avx512Ops {
  static constexpr uint32_t kWidth = 16;
  static constexpr __mmask16 kAll = 0xFFFF;
  using vf = __m512;
  using vu = __m512i;
  static vf zero() { return _mm512_setzero_ps(); }
  static vf set1(float x) { return _mm512_set1_ps(x); }
  static vf load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, vf v) { _mm512_storeu_ps(p, v); }
  static vf add(vf a, vf b) { return _mm512_add_ps(a, b); }
  static vf sub(vf a, vf b) { return _mm512_sub_ps(a, b); }
  static vf mul(vf a, vf b) { return _mm512_mul_ps(a, b); }
  static vf div(vf a, vf b) { return _mm512_div_ps(a, b); }
  static vf neg(vf a) { return _mm512_xor_ps(a, _mm512_set1_ps(-0.0f)); }
  static vf abs(vf a) { return _mm512_andnot_ps(_mm512_set1_ps(-0.0f), a); }
  static vf copysign(vf mag, vf sgn) {
    const vf sign = _mm512_set1_ps(-0.0f);
    return _mm512_or_ps(_mm512_andnot_ps(sign, mag),
                        _mm512_and_ps(sign, sgn));
  }
  /// acc + a*b, deliberately unfused (see header comment).
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return _mm512_fmadd_ps(a, b, acc); }
  static vf round(vf a) {
    return _mm512_maskz_roundscale_ps(
        kAll, a, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static vu cvt_i32(vf a) { return _mm512_maskz_cvtps_epi32(kAll, a); }
  static vf pow2i(vu n) {
    return _mm512_castsi512_ps(_mm512_maskz_slli_epi32(
        kAll, _mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
  }
  static vu cmp_gt(vf a, vf b) {
    return _mm512_movm_epi32(_mm512_cmp_ps_mask(a, b, _CMP_GT_OQ));
  }
  static vu cmp_ge(vf a, vf b) {
    return _mm512_movm_epi32(_mm512_cmp_ps_mask(a, b, _CMP_GE_OQ));
  }
  static vu cmp_lt(vf a, vf b) {
    return _mm512_movm_epi32(_mm512_cmp_ps_mask(a, b, _CMP_LT_OQ));
  }
  static vf blend(vf a, vf b, vu mask) {
    return _mm512_mask_blend_ps(_mm512_movepi32_mask(mask), a, b);
  }
};
using NativeOps = Avx512Ops;
using HalfOps = AvxOps;
inline constexpr const char* kArchName = "avx512";

#elif defined(__AVX2__) && defined(__FMA__)

using NativeOps = AvxOps;
using HalfOps = ScalarOps;
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
using HalfOps = ScalarOps;
inline constexpr const char* kArchName = "neon";

#else

using NativeOps = ScalarOps;
using HalfOps = ScalarOps;
inline constexpr const char* kArchName = "scalar";

#endif

/// Compile-time ISA of the native backend ("avx512", "avx2", "neon" or
/// "scalar").
inline const char* arch_name() { return kArchName; }

}  // namespace stgraph::simd
