#include "tensor/gemm.hpp"

#include <algorithm>
#include <memory>

#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"
#include "tensor/op_profile.hpp"
#include "util/check.hpp"

namespace stgraph::ops::detail {
namespace {

/// Rows per register tile. A tile holds MR × NV accumulators, NV op(B)
/// vectors and one broadcast of op(A). Covering the FMA latency takes at
/// least eight independent accumulators in every tile, so the register file
/// sets MR: the 32 zmm registers of AVX-512 take 8 rows (8 accumulators at
/// NV = 1, 16 at NV = 2); the 16-register ISAs take 4 rows (8 at NV = 2).
template <class Ops>
constexpr int kMR = Ops::kWidth >= 16 ? 8 : 4;

/// Operands as the micro-kernel reads them. Element (i, kk) of op(A) is
/// a[i*ars + kk*aks]; op(B) is row-major k×n with row stride ldb.
struct Operands {
  const float* a;
  int64_t ars, aks;
  const float* b;
  int64_t ldb;
  float* c;
  int64_t m, k, n;
};

/// C[i0:i0+MR, j0:j0+NV·W] in registers: per k step, NV loads of the op(B)
/// row and one broadcast of op(A) per row, then one fma per accumulator.
/// Each C element is therefore one fma chain, k ascending from +0.
template <class Ops, int MR, int NV>
void tile(const Operands& op, int64_t i0, int64_t j0) {
  constexpr int64_t W = Ops::kWidth;
  typename Ops::vf acc[MR][NV];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) acc[r][v] = Ops::zero();
  const float* a = op.a + i0 * op.ars;
  const float* b = op.b + j0;
  for (int64_t kk = 0; kk < op.k; ++kk) {
    typename Ops::vf bv[NV];
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) bv[v] = Ops::load(b + kk * op.ldb + v * W);
    const float* acol = a + kk * op.aks;
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const typename Ops::vf ar = Ops::set1(acol[r * op.ars]);
#pragma GCC unroll 4
      for (int v = 0; v < NV; ++v) acc[r][v] = Ops::fma(ar, bv[v], acc[r][v]);
    }
  }
  float* c = op.c + i0 * op.n + j0;
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 4
    for (int v = 0; v < NV; ++v) Ops::store(c + r * op.n + v * W, acc[r][v]);
}

/// Rows [i0, i0+MR) of C: 2-vector tiles, one 1-vector tile, one
/// simd::HalfOps tile, then the tail columns one at a time as ScalarOps
/// tiles. Every tile runs the same fma chain, so the split changes no bit.
template <class Ops, int MR>
void row_block(const Operands& op, int64_t i0) {
  using Half = simd::HalfOps;
  constexpr int64_t W = Ops::kWidth, HW = Half::kWidth;
  int64_t j = 0;
  for (; j + 2 * W <= op.n; j += 2 * W) tile<Ops, MR, 2>(op, i0, j);
  if (j + W <= op.n) {
    tile<Ops, MR, 1>(op, i0, j);
    j += W;
  }
  if (j + HW <= op.n) {
    tile<Half, MR, 1>(op, i0, j);
    j += HW;
  }
  for (; j < op.n; ++j) tile<simd::ScalarOps, MR, 1>(op, i0, j);
}

/// Splits C into kMR-row blocks across the pool; k is never split. The
/// last m % kMR rows run in 4-row blocks while they can, then one by one.
template <class Ops>
void run(const Operands& op) {
  constexpr int MR = kMR<Ops>;
  const int64_t blocks = (op.m + MR - 1) / MR;
  device::parallel_for_ranges(
      static_cast<std::size_t>(blocks),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t blk = lo; blk < hi; ++blk) {
          int64_t i = static_cast<int64_t>(blk) * MR;
          if (op.m - i >= MR) {
            row_block<Ops, MR>(op, i);
            continue;
          }
          if constexpr (MR > 4) {
            for (; op.m - i >= 4; i += 4) row_block<Ops, 4>(op, i);
          }
          for (; i < op.m; ++i) row_block<Ops, 1>(op, i);
        }
      },
      /*grain=*/16 / MR);
}

}  // namespace

Tensor gemm(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  STG_CHECK(a.dim() == 2 && b.dim() == 2, "matmul needs rank-2 tensors, got ",
            shape_str(a.shape()), " and ", shape_str(b.shape()));
  const int64_t m = ta ? a.size(1) : a.size(0);
  const int64_t k = ta ? a.size(0) : a.size(1);
  const int64_t kb = tb ? b.size(1) : b.size(0);
  const int64_t n = tb ? b.size(0) : b.size(1);
  STG_CHECK(k == kb, "matmul inner dims mismatch: ", k, " vs ", kb, " (",
            shape_str(a.shape()), (ta ? "ᵀ" : ""), " @ ", shape_str(b.shape()),
            (tb ? "ᵀ" : ""), ")");
  Tensor out = Tensor::empty({m, n});
  ProfileScope prof(OpClass::kMatmul,
                    static_cast<uint64_t>(out.numel()) * sizeof(float));
  if (k == 0) {  // an empty sum; the operands may have no storage at all
    std::fill_n(out.data(), out.numel(), 0.0f);
    return out;
  }
  const int64_t lda = a.size(1), ldb = b.size(1);
  Operands op{a.data(), ta ? 1 : lda, ta ? lda : 1, b.data(), ldb,
              out.data(), m, k, n};
  // Only the small operand is copied. A transposed B (the weight in the
  // input-gradient product) is packed once into row-major k×n so the tile
  // loads it as vectors. A non-transposed B and op(A) are read in place:
  // the kMR values of a transposed A at one k are already adjacent.
  std::unique_ptr<float[]> packed;
  if (tb) {
    packed = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(k * n));
    const float* pb = b.data();
    for (int64_t kk = 0; kk < k; ++kk)
      for (int64_t j = 0; j < n; ++j) packed[kk * n + j] = pb[j * ldb + kk];
    op.b = packed.get();
    op.ldb = n;
  }
  run<simd::NativeOps>(op);
  return out;
}

}  // namespace stgraph::ops::detail
