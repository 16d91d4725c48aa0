// The specialized kernel engine — what Seastar's CUDA codegen emits per
// program, reproduced as a C++ template grid. Where the interpreted
// reference kernel (oracles/compiler/kernel_reference.cpp) re-evaluates a
// coef-kind switch on every edge and walks features scalar-by-scalar, this
// engine:
//
//   * instantiates one row function per (direction, has-edge-weight,
//     has-gaps, include-self) combination — a 2×2×2×2 grid of sum
//     cells — so every per-edge branch of the reference loop is resolved
//     at compile time (every view carries its eid array; validate_args
//     rejects one with slots but no eids),
//   * hoists consumer-only coefficient factors (inverse-degree products on
//     the row vertex) out of the edge loop — in the forward direction the
//     per-edge work for a GCN-normalized sum collapses to one cached
//     multiply,
//   * serves kGcnNorm factors from the per-snapshot edge-coefficient cache
//     (KernelArgs::gcn_coef) when the graph provides one, replacing a
//     per-edge rsqrt with a load,
//   * keeps the output row in vector registers across the edge loop
//     (register tiling): the native vectors of a row call plus one
//     simd::HalfOps vector, so a 32-wide feature tile (two zmm on AVX-512)
//     or an 8-wide row (one ymm under AVX-512) reads and writes memory once
//     per row instead of once per edge.
//
// Bit-parity contract with the reference: compile() canonicalizes coef
// order, so the hoisted prefix is a literal prefix of the reference's
// left-to-right product; simd::Ops::madd is unfused; this translation unit
// is built with -ffp-contract=off. The fuzz suite (test_kernel_simd)
// asserts bitwise identity on every grid cell.
#include "compiler/kernel.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"

namespace stgraph::compiler {
namespace {

/// Launch direction: forward rows are consumers, backward rows producers.
enum class Mode { kFwd, kBwd };

/// Widest feature span one row call covers in a single edge scan with
/// stack-resident accumulators. The untiled path caps F below
/// kFeatureTileThreshold and every tile is at most kFeatureTileThreshold
/// wide, so a row call never exceeds this.
inline constexpr uint32_t kMaxRange = 64;
static_assert(kFeatureTileThreshold <= kMaxRange);

/// Max accumulator vectors live at once: a whole kMaxRange row call (4 zmm
/// on AVX-512, 8 ymm on AVX2), capped at 8 so NEON's 4-lane vectors take
/// two scans. sum_block is instantiated at these widths only.
template <class Ops>
inline constexpr uint32_t kMaxAccVecs =
    std::min<uint32_t>(8, kMaxRange / Ops::kWidth);

/// Edge-loop lookahead for gather prefetch. The producer-feature rows land
/// at random addresses (the graph decides), so the hardware prefetcher
/// cannot help; issuing the loads this many edges early hides the L2-miss
/// latency that otherwise dominates the scan.
inline constexpr uint32_t kPrefetchDist = 32;
inline constexpr uint32_t kPrefetchNear = 6;

inline void prefetch_read(const void* p, int locality) {
#if defined(__GNUC__) || defined(__clang__)
  switch (locality) {  // __builtin_prefetch needs a literal hint
    case 3:
      __builtin_prefetch(p, 0, 3);
      break;
    case 2:
      __builtin_prefetch(p, 0, 2);
      break;
    default:
      __builtin_prefetch(p, 0, 1);
      break;
  }
#else
  (void)p;
  (void)locality;
#endif
}

/// Everything one launch's row functions touch, flattened out of
/// KernelSpec/KernelArgs so the hot loop indexes plain pointers.
struct Launch {
  const uint32_t* row_offset = nullptr;
  const uint32_t* col = nullptr;
  const uint32_t* eids = nullptr;
  const uint32_t* deg = nullptr;
  const float* ew = nullptr;
  const float* cache = nullptr;  // eid-indexed gcn-norm cache; may be null
  const float* const* inputs = nullptr;
  const float* self_features = nullptr;
  float* out = nullptr;
  const TermPlan* plans = nullptr;
  uint32_t num_terms = 0;
  TermPlan self_plan;
  float scale = 1.0f;
  uint32_t F = 0;
  /// Fused bias epilogue ([F] row added at accumulator writeback).
  const float* epilogue = nullptr;
  /// One past the last valid slot index (row_offset[num_nodes]): the edge
  /// prefetch looks across row boundaries up to here, since rows tile the
  /// slot array contiguously.
  uint32_t slots_end = 0;
};

/// Prefetch the feature rows (and coefficients) the scan will gather a few
/// slots from now: a far touch pulls toward L2, a near one finishes the
/// line into L1 just before use. Looks across row boundaries (rows tile
/// the slot array, and consecutive rows run on the same lane in natural
/// order), so short rows still get covered.
template <bool Gaps>
inline void prefetch_edge(const Launch& L, const float* input, uint32_t j,
                          uint32_t f0) {
  const auto touch = [&](uint32_t ahead, int locality) {
    const uint32_t pcol = L.col[j + ahead];
    if constexpr (Gaps) {
      if (pcol == kSpace) return;
    }
    const float* p = input + static_cast<std::size_t>(pcol) * L.F + f0;
    prefetch_read(p, locality);
    if (L.F > 16) prefetch_read(p + 16, locality);  // second line of the row
    if (L.cache) prefetch_read(L.cache + L.eids[j + ahead], locality);
  };
  if (j + kPrefetchDist < L.slots_end) touch(kPrefetchDist, /*L2=*/2);
  if (j + kPrefetchNear < L.slots_end) touch(kPrefetchNear, /*L1=*/3);
}

/// Multiply in a plan's consumer-degree factors for vertex v. Canonical
/// order (inv-degree before inv-degree+1) matches the reference product.
inline float apply_consumer(const TermPlan& tp, float c, const Launch& L,
                            uint32_t v) {
  if (tp.inv_deg) {
    const uint32_t d = L.deg[v];
    const float f = d > 0 ? 1.0f / static_cast<float>(d) : 0.0f;
    for (uint32_t k = 0; k < tp.inv_deg; ++k) c *= f;
  }
  if (tp.inv_deg_p1) {
    const float f = 1.0f / static_cast<float>(L.deg[v] + 1);
    for (uint32_t k = 0; k < tp.inv_deg_p1; ++k) c *= f;
  }
  return c;
}

/// Per-row hoisted prefix of each term's coefficient product: the constant
/// fold always, plus the consumer factors when the row is the consumer
/// (forward). In the backward direction the consumer is the column, so
/// those factors stay per-edge.
template <Mode M>
inline void term_bases(const Launch& L, uint32_t row,
                       float* base /* kMaxSpecializedTerms */) {
  for (uint32_t t = 0; t < L.num_terms; ++t) {
    float c = L.plans[t].c0;
    if constexpr (M == Mode::kFwd)
      c = apply_consumer(L.plans[t], c, L, row);
    base[t] = c;
  }
}

/// Complete a hoisted base into the per-edge coefficient (canonical factor
/// order; the caller applies out_scale). The gcn argument order differs
/// from the reference's (producer, consumer) only by commutation, which is
/// bitwise-exact for float multiplies.
template <Mode M, bool EW>
inline float edge_coef(const Launch& L, const TermPlan& tp, float base,
                       uint32_t row, uint32_t col, uint32_t eid) {
  float c = base;
  if constexpr (M == Mode::kBwd)
    c = apply_consumer(tp, c, L, col);
  if (tp.gcn) {
    const float g =
        L.cache ? L.cache[eid] : gcn_norm_coef(L.deg[col], L.deg[row]);
    for (uint32_t k = 0; k < tp.gcn; ++k) c *= g;
  }
  if constexpr (EW) {
    for (uint32_t k = 0; k < tp.edge_w; ++k) c *= L.ew[eid];
  }
  return c;
}

/// Self-term coefficient (producer == consumer == row in both directions;
/// the reference evaluates it with eid 0, preserved here). Always computed
/// inline — cache entry 0 belongs to a real edge, not the self loop.
template <bool EW>
inline float self_coef(const Launch& L, uint32_t row) {
  const TermPlan& tp = L.self_plan;
  float c = apply_consumer(tp, tp.c0, L, row);
  if (tp.gcn) {
    const float g = gcn_norm_coef(L.deg[row], L.deg[row]);
    for (uint32_t k = 0; k < tp.gcn; ++k) c *= g;
  }
  if constexpr (EW) {
    for (uint32_t k = 0; k < tp.edge_w; ++k) c *= L.ew[0];
  }
  return c;
}

// ---- register-tiled vector blocks (NV accumulator vectors per scan) ------

template <class Ops, int NV, Mode M, bool EW, bool Gaps, bool Self>
inline void sum_block(const Launch& L, uint32_t row, uint32_t f0,
                      const float* base) {
  using vf = typename Ops::vf;
  constexpr uint32_t W = Ops::kWidth;
  vf acc[NV];
  for (int i = 0; i < NV; ++i) acc[i] = Ops::zero();
  const uint32_t end = L.row_offset[row + 1];
  for (uint32_t j = L.row_offset[row]; j < end; ++j) {
    const uint32_t col = L.col[j];
    if constexpr (Gaps) {
      if (col == kSpace) continue;
    }
    prefetch_edge<Gaps>(L, L.inputs[L.plans[0].input], j, f0);
    const uint32_t eid = L.eids[j];
    for (uint32_t t = 0; t < L.num_terms; ++t) {
      const float c =
          edge_coef<M, EW>(L, L.plans[t], base[t], row, col, eid) * L.scale;
      if (c == 0.0f) continue;  // matches the reference's zero-skip
      const vf vc = Ops::set1(c);
      const float* src = L.inputs[L.plans[t].input] +
                         static_cast<std::size_t>(col) * L.F + f0;
      for (int i = 0; i < NV; ++i)
        acc[i] = Ops::madd(vc, Ops::load(src + i * W), acc[i]);
    }
  }
  if constexpr (Self) {
    const float c = self_coef<EW>(L, row) * L.scale;
    const vf vc = Ops::set1(c);
    const float* src =
        L.self_features + static_cast<std::size_t>(row) * L.F + f0;
    for (int i = 0; i < NV; ++i)
      acc[i] = Ops::madd(vc, Ops::load(src + i * W), acc[i]);
  }
  if (L.epilogue != nullptr) {
    // Fused bias writeback: the same float add the unfused path performs
    // after storing, applied while the row is still in registers.
    for (int i = 0; i < NV; ++i)
      acc[i] = Ops::add(acc[i], Ops::load(L.epilogue + f0 + i * W));
  }
  float* orow = L.out + static_cast<std::size_t>(row) * L.F + f0;
  for (int i = 0; i < NV; ++i) Ops::store(orow + i * W, acc[i]);
}

/// sum_block at the run-time width nv, one of 1..sizeof...(I).
template <class Ops, Mode M, bool EW, bool Gaps, bool Self, int... I>
inline void sum_block_n(const Launch& L, uint32_t row, uint32_t f0,
                        const float* base, uint32_t nv,
                        std::integer_sequence<int, I...>) {
  ((nv == I + 1u ? sum_block<Ops, I + 1, M, EW, Gaps, Self>(L, row, f0, base)
                 : void()),
   ...);
}

// ---- scalar range path (sub-vector tails and the width-1 engine) ---------

/// Process feature columns [f0, f1) with plain-float stack accumulators in
/// one edge scan. len is bounded by kMaxRange; this is the whole row body
/// for the scalar-specialized engine and the remainder handler for the
/// vector engines.
template <Mode M, bool EW, bool Gaps, bool Self>
void range_row(const Launch& L, uint32_t row, uint32_t f0, uint32_t f1,
               const float* base) {
  const uint32_t len = f1 - f0;
  const uint32_t end = L.row_offset[row + 1];
  float acc[kMaxRange];
  for (uint32_t f = 0; f < len; ++f) acc[f] = 0.0f;
  for (uint32_t j = L.row_offset[row]; j < end; ++j) {
    const uint32_t col = L.col[j];
    if constexpr (Gaps) {
      if (col == kSpace) continue;
    }
    const uint32_t eid = L.eids[j];
    for (uint32_t t = 0; t < L.num_terms; ++t) {
      const float c =
          edge_coef<M, EW>(L, L.plans[t], base[t], row, col, eid) *
          L.scale;
      if (c == 0.0f) continue;
      const float* src = L.inputs[L.plans[t].input] +
                         static_cast<std::size_t>(col) * L.F + f0;
      for (uint32_t f = 0; f < len; ++f) acc[f] += c * src[f];
    }
  }
  if constexpr (Self) {
    const float c = self_coef<EW>(L, row) * L.scale;
    const float* src =
        L.self_features + static_cast<std::size_t>(row) * L.F + f0;
    for (uint32_t f = 0; f < len; ++f) acc[f] += c * src[f];
  }
  if (L.epilogue != nullptr) {
    for (uint32_t f = 0; f < len; ++f) acc[f] += L.epilogue[f0 + f];
  }
  float* orow = L.out + static_cast<std::size_t>(row) * L.F + f0;
  for (uint32_t f = 0; f < len; ++f) orow[f] = acc[f];
}

// ---- row driver: register blocks + tail, one entry per grid cell ---------

template <class Ops, Mode M, bool EW, bool Gaps, bool Self>
void row_entry(const Launch& L, uint32_t row, uint32_t f0, uint32_t f1) {
  float base[kMaxSpecializedTerms];
  term_bases<M>(L, row, base);
  if constexpr (Ops::kWidth == 1) {
    // Width-1 engine: one stack-buffered scan beats rescanning the edge
    // list per 8-float register block.
    range_row<M, EW, Gaps, Self>(L, row, f0, f1, base);
    return;
  } else {
    constexpr uint32_t W = Ops::kWidth;
    uint32_t f = f0;
    // The HalfOps vector the native vectors leave over, then the native
    // blocks, then the scalar tail. Columns are independent, so the order
    // changes no bit.
    using Half = simd::HalfOps;
    if constexpr (Half::kWidth > 1) {
      if ((f1 - f0) % W >= Half::kWidth) {
        sum_block<Half, 1, M, EW, Gaps, Self>(L, row, f, base);
        f += Half::kWidth;
      }
    }
    uint32_t nvec = (f1 - f) / W;
    while (nvec > 0) {
      const uint32_t nv = std::min(nvec, kMaxAccVecs<Ops>);
      sum_block_n<Ops, M, EW, Gaps, Self>(
          L, row, f, base, nv,
          std::make_integer_sequence<int, kMaxAccVecs<Ops>>{});
      f += nv * W;
      nvec -= nv;
    }
    if (f < f1) range_row<M, EW, Gaps, Self>(L, row, f, f1, base);
  }
}

template <class Ops>
using RowFn = void (*)(const Launch&, uint32_t, uint32_t, uint32_t);

template <class Ops, Mode M, std::size_t... I>
constexpr std::array<RowFn<Ops>, 8> make_table(std::index_sequence<I...>) {
  return {{&row_entry<Ops, M, ((I >> 2) & 1) != 0, ((I >> 1) & 1) != 0,
                      (I & 1) != 0>...}};
}

template <class Ops, Mode M>
RowFn<Ops> pick_row(bool ew, bool gaps, bool self) {
  static constexpr std::array<RowFn<Ops>, 8> table =
      make_table<Ops, M>(std::make_index_sequence<8>{});
  return table[(ew ? 4u : 0u) | (gaps ? 2u : 0u) | (self ? 1u : 0u)];
}

// ---- launch: specialization pick + feature-adaptive work shaping ---------

template <class Ops>
void run_engine(const KernelSpec& spec, const KernelArgs& a) {
  Launch L;
  L.row_offset = a.view.row_offset;
  L.col = a.view.col_indices;
  L.eids = a.view.eids;
  L.deg = a.in_degrees;
  L.ew = a.edge_weights;
  L.cache = a.gcn_coef;
  L.inputs = a.inputs;
  L.self_features = a.self_features;
  L.out = a.out;
  L.plans = spec.plans.data();
  L.num_terms = static_cast<uint32_t>(spec.plans.size());
  L.self_plan = spec.self_plan;
  L.scale = spec.program.out_scale;
  L.F = a.num_feats;
  L.epilogue = a.epilogue_bias;
  L.slots_end =
      a.view.row_offset ? a.view.row_offset[a.view.num_nodes] : 0;

  const bool ew = spec.uses_edge_weight;
  const bool gaps = a.view.has_gaps;
  const bool self = spec.program.include_self;
  const RowFn<Ops> fn =
      a.producer_is_col ? pick_row<Ops, Mode::kFwd>(ew, gaps, self)
                        : pick_row<Ops, Mode::kBwd>(ew, gaps, self);

  const uint32_t n = a.view.num_nodes;
  const uint32_t F = a.num_feats;

  // The degree-sorted order exists to balance strided lanes (paper
  // Figure 3); on a single lane it only scatters the row-offset/col/out
  // accesses, so fall back to natural (sequential) order there. Rows are
  // independent, so the output is bit-identical either way.
  const unsigned lanes = device::lane_count();
  const uint32_t* order = lanes == 1 ? nullptr : a.view.node_ids;

  // Feature-adaptive work shaping. Tile on wide features as before, but
  // also when the vertex count alone cannot keep the lanes busy (small
  // graphs used to run one item per vertex and leave most lanes idle).
  uint32_t tile_size = F;  // F = untiled (vertex-per-item)
  if (F >= kFeatureTileThreshold) {
    tile_size = kFeatureTile;
  } else if (n < 4u * lanes && F > kMinFeatureTile && n > 0) {
    const uint32_t want = (4u * lanes + n - 1) / n;  // tiles/row to fill lanes
    const uint32_t max_tiles = (F + kMinFeatureTile - 1) / kMinFeatureTile;
    const uint32_t tiles = std::min(want, max_tiles);
    if (tiles > 1) {
      tile_size = (F + tiles - 1) / tiles;
      tile_size = (tile_size + kMinFeatureTile - 1) & ~(kMinFeatureTile - 1);
    }
  }

  const uint32_t tiles = F == 0 ? 1 : (F + tile_size - 1) / tile_size;
  device::parallel_for_strided(n, tiles, [&](std::size_t i, std::size_t t) {
    const uint32_t row = order ? order[i] : static_cast<uint32_t>(i);
    const uint32_t f0 = static_cast<uint32_t>(t) * tile_size;
    fn(L, row, f0, std::min(F, f0 + tile_size));
  });
}

}  // namespace

void run_kernel(const KernelSpec& spec, const KernelArgs& args) {
  validate_args(spec, args);
  run_engine<simd::NativeOps>(spec, args);
}

}  // namespace stgraph::compiler
