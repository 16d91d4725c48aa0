// Portable SIMD layer for the specialized kernel engine — the CPU analogue
// of the CUDA vector width the paper's generated kernels get for free from
// warp lanes. One instruction-set backend is selected at compile time
// (AVX2+FMA on x86-64, NEON on arm64, a width-1 scalar fallback elsewhere);
// the runtime escape hatch STGRAPH_SIMD=off routes every launch through
// the scalar-specialized engine instead, so SIMD codegen can be excluded
// when debugging numerical issues without rebuilding.
//
// Parity contract: `madd` is REQUIRED to be an unfused multiply-then-add
// (never an FMA) so that every lane of the aggregation engine performs
// exactly the IEEE operation sequence of its scalar reference kernel — the
// fuzz suite asserts bitwise identity between the two paths, which a fused
// madd would break. `fma` is the opposite by design: one correctly rounded
// a*b+acc on every backend (scalar std::fmaf included), so a chain of them
// has the same bits at every width. Only the GEMM kernel uses it.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#elif defined(__ARM_NEON) && defined(__ARM_FEATURE_FMA)
#include <arm_neon.h>
#endif

namespace stgraph::simd {

/// Width-1 backend: the specialization grid compiled against plain floats.
/// Used when no vector ISA is available and for the STGRAPH_SIMD=off
/// escape hatch (it exercises the same engine code paths minus the ISA).
struct ScalarOps {
  static constexpr uint32_t kWidth = 1;
  using vf = float;
  using vu = uint32_t;
  static vf zero() { return 0.0f; }
  static vf neg_inf() { return -__builtin_inff(); }
  static vf set1(float x) { return x; }
  static vu set1u(uint32_t x) { return x; }
  static vf load(const float* p) { return *p; }
  static void store(float* p, vf v) { *p = v; }
  static vu loadu(const uint32_t* p) { return *p; }
  static void storeu(uint32_t* p, vu v) { *p = v; }
  static vf add(vf a, vf b) { return a + b; }
  static vf mul(vf a, vf b) { return a * b; }
  /// acc + a*b, deliberately unfused (see header comment).
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return std::fmaf(a, b, acc); }
  static vf max(vf a, vf b) { return a > b ? a : b; }
  /// Lane mask with a > b (ordered: false on NaN, like scalar `>`).
  static vu cmp_gt(vf a, vf b) { return a > b ? 0xFFFFFFFFu : 0u; }
  static vu cmp_eq_u(vu a, vu b) { return a == b ? 0xFFFFFFFFu : 0u; }
  /// mask ? b : a, per lane.
  static vf blend(vf a, vf b, vu mask) { return mask ? b : a; }
  static vu blendu(vu a, vu b, vu mask) { return mask ? b : a; }
  /// Zero out lanes where mask is false.
  static vf mask_keep(vf v, vu mask) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits &= mask;
    vf out;
    std::memcpy(&out, &bits, sizeof(out));
    return out;
  }
};

#if defined(__AVX2__) && defined(__FMA__)

/// 8-lane f32 backend (AVX2). Masks are carried as __m256i full-lane masks.
struct AvxOps {
  static constexpr uint32_t kWidth = 8;
  using vf = __m256;
  using vu = __m256i;
  static vf zero() { return _mm256_setzero_ps(); }
  static vf neg_inf() { return _mm256_set1_ps(-__builtin_inff()); }
  static vf set1(float x) { return _mm256_set1_ps(x); }
  static vu set1u(uint32_t x) {
    return _mm256_set1_epi32(static_cast<int>(x));
  }
  static vf load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, vf v) { _mm256_storeu_ps(p, v); }
  static vu loadu(const uint32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(uint32_t* p, vu v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static vf add(vf a, vf b) { return _mm256_add_ps(a, b); }
  static vf mul(vf a, vf b) { return _mm256_mul_ps(a, b); }
  /// acc + a*b, deliberately unfused (see header comment).
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return _mm256_fmadd_ps(a, b, acc); }
  static vf max(vf a, vf b) { return _mm256_max_ps(a, b); }
  static vu cmp_gt(vf a, vf b) {
    return _mm256_castps_si256(_mm256_cmp_ps(a, b, _CMP_GT_OQ));
  }
  static vu cmp_eq_u(vu a, vu b) { return _mm256_cmpeq_epi32(a, b); }
  static vf blend(vf a, vf b, vu mask) {
    return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
  }
  static vu blendu(vu a, vu b, vu mask) {
    return _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(a), _mm256_castsi256_ps(b),
        _mm256_castsi256_ps(mask)));
  }
  static vf mask_keep(vf v, vu mask) {
    return _mm256_and_ps(v, _mm256_castsi256_ps(mask));
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
  static vf neg_inf() { return vdupq_n_f32(-__builtin_inff()); }
  static vf set1(float x) { return vdupq_n_f32(x); }
  static vu set1u(uint32_t x) { return vdupq_n_u32(x); }
  static vf load(const float* p) { return vld1q_f32(p); }
  static void store(float* p, vf v) { vst1q_f32(p, v); }
  static vu loadu(const uint32_t* p) { return vld1q_u32(p); }
  static void storeu(uint32_t* p, vu v) { vst1q_u32(p, v); }
  static vf add(vf a, vf b) { return vaddq_f32(a, b); }
  static vf mul(vf a, vf b) { return vmulq_f32(a, b); }
  /// acc + a*b, deliberately unfused (see header comment) — NOT vfmaq.
  static vf madd(vf a, vf b, vf acc) { return add(acc, mul(a, b)); }
  /// acc + a*b with a single rounding (see header comment).
  static vf fma(vf a, vf b, vf acc) { return vfmaq_f32(acc, a, b); }
  static vf max(vf a, vf b) { return vmaxq_f32(a, b); }
  static vu cmp_gt(vf a, vf b) { return vcgtq_f32(a, b); }
  static vu cmp_eq_u(vu a, vu b) { return vceqq_u32(a, b); }
  static vf blend(vf a, vf b, vu mask) { return vbslq_f32(mask, b, a); }
  static vu blendu(vu a, vu b, vu mask) { return vbslq_u32(mask, b, a); }
  static vf mask_keep(vf v, vu mask) {
    return vreinterpretq_f32_u32(
        vandq_u32(vreinterpretq_u32_f32(v), mask));
  }
};
using NativeOps = NeonOps;
inline constexpr const char* kArchName = "neon";

#else

using NativeOps = ScalarOps;
inline constexpr const char* kArchName = "scalar";

#endif

/// Compile-time ISA of the native backend ("avx2", "neon" or "scalar").
inline const char* arch_name() { return kArchName; }

/// Runtime escape hatch: STGRAPH_SIMD=off|0|false disables the vector
/// backend for the whole process (read once, first use).
inline bool enabled() {
  static const bool on = [] {
    const char* s = std::getenv("STGRAPH_SIMD");
    if (!s || !*s) return true;
    return !(std::strcmp(s, "off") == 0 || std::strcmp(s, "OFF") == 0 ||
             std::strcmp(s, "0") == 0 || std::strcmp(s, "false") == 0);
  }();
  return on;
}

/// The ISA launches actually run with (arch_name() unless disabled).
inline const char* active_arch() {
  return enabled() ? arch_name() : "scalar";
}

}  // namespace stgraph::simd
