// Kernel lowering and execution — the stand-in for Seastar's CUDA code
// generation. A Program is compiled into a KernelSpec (flattened coef
// products + dispatch flags); run_kernel() executes it with:
//
//   * vertex parallelism in the degree-sorted node_ids order (heaviest
//     vertices first, round-robin lane striding — the CPU analogue of the
//     paper's "pre-sorting the CSR lets high-degree vertices overlap with
//     many low-degree ones"),
//   * feature-adaptive work shaping: small feature sizes run one vertex
//     per work item; large feature sizes split rows into feature tiles so
//     lanes stay busy on small graphs (the paper's feature-adaptive thread
//     group allocation),
//   * gap awareness: gapped PMA views are consumed in place by skipping
//     kSpace slots, so GPMAGraph's backward pass needs no compaction.
//
// One launch performs gather + coefficient product + aggregate + self loop
// + output scaling — the operator fusion Seastar's codegen performs. The
// interpreted reference kernel this engine is held to bit for bit lives in
// the oracle library (oracles/compiler/kernel_reference.hpp), which only
// tests and benches link.
#pragma once

#include "compiler/ir.hpp"
#include "graph/csr.hpp"

namespace stgraph::compiler {

/// Specialized form of one message term's coefficient product, built at
/// compile() time so the engine never re-interprets the coef list per edge.
/// Factors are pre-classified by what they depend on:
///   * c0            — product of every kConst factor (fully static),
///   * inv_deg/p1    — consumer-degree factors: hoistable out of the edge
///                     loop in the forward direction (consumer == row),
///                     per-edge in the backward direction,
///   * gcn           — symmetric degree factor, per-edge in both directions
///                     but servable from the per-snapshot coefficient cache,
///   * edge_w        — per-edge weight lookup.
/// Factor multiplication order is canonical (const, inv-degree, inv-degree+1,
/// gcn-norm, edge-weight, then out_scale) and compile() reorders the coef
/// lists of the stored program to match, so the interpreted reference kernel
/// and the specialized engine perform bit-identical float sequences.
struct TermPlan {
  int input = 0;
  float c0 = 1.0f;          // folded constant prefix
  uint8_t inv_deg = 0;      // count of kInvDegree factors
  uint8_t inv_deg_p1 = 0;   // count of kInvDegreeP1 factors
  uint8_t gcn = 0;          // count of kGcnNorm factors
  uint8_t edge_w = 0;       // count of kEdgeWeight factors
};

/// A compiled, executable kernel (forward or backward direction chosen at
/// run time via KernelArgs::producer_is_col).
struct KernelSpec {
  Program program;              // optimized (mean-lowered, folded)
  bool uses_edge_weight = false;
  bool uses_degrees = false;
  std::vector<TermPlan> plans;  // one per program.terms entry
  TermPlan self_plan;           // valid when program.include_self
};

/// The engine grid's term bound: compile() rejects (StgError) a program
/// with more terms, or with more than 255 factors of one kind in a coef
/// product. No real program comes close; the grid keeps per-row hoist
/// state on the stack sized by this bound.
inline constexpr uint32_t kMaxSpecializedTerms = 8;

KernelSpec compile(Program p);

/// Runtime arguments for one launch.
struct KernelArgs {
  CsrView view;                    // adjacency rows iterated by the kernel
  const uint32_t* in_degrees = nullptr;  // semantic in-degree array
  /// Gather sources, indexed by MessageTerm::input. inputs[i] is a row-major
  /// [num_nodes, num_feats] array read at the producer vertex.
  const float* const* inputs = nullptr;
  /// Row-side features for the self term (usually inputs[self_input]).
  const float* self_features = nullptr;
  const float* edge_weights = nullptr;   // indexed by eid; may be null
  /// Per-snapshot GCN-norm cache, indexed by eid: 1/sqrt((din(u)+1)(din(v)+1))
  /// precomputed once per snapshot view by the owning graph class. May be
  /// null, in which case kGcnNorm factors are computed inline per edge.
  const float* gcn_coef = nullptr;
  float* out = nullptr;                  // [num_nodes, num_feats], overwritten
  uint32_t num_feats = 0;
  /// true  → forward  (rows are consumers; producer is the column)
  /// false → backward (rows are producers; consumer is the column)
  bool producer_is_col = true;
  /// Fused elementwise epilogue (the fusing tape compiler grafts a layer's
  /// bias add onto the aggregation's accumulator writeback): when non-null,
  /// a [num_feats] row added to every output row as it is stored, saving
  /// one full read-modify-write pass over the output. Bit-identical to
  /// running the kernel and then ops::add_bias (the add sees the same two
  /// floats either way).
  const float* epilogue_bias = nullptr;
};

/// Throws StgError unless `args` binds every buffer `spec` reads or writes,
/// including the view's eid array whenever it has slots
/// (row_offset[num_nodes] > 0): edge weights and the coefficient cache are
/// indexed by edge label, never by slot position. run_kernel and the
/// reference kernel (oracles/compiler/kernel_reference.hpp) both call it.
void validate_args(const KernelSpec& spec, const KernelArgs& args);

/// Launch `spec` on the specialized engine (kernel_engine.cpp), whose one
/// instantiation is against simd::NativeOps. Arguments go through
/// validate_args; the spec must come from compile().
void run_kernel(const KernelSpec& spec, const KernelArgs& args);

/// Feature-size threshold at which the scheduler switches from
/// vertex-per-item to (vertex × feature-tile) work shaping.
inline constexpr uint32_t kFeatureTileThreshold = 64;
inline constexpr uint32_t kFeatureTile = 32;
/// Below this feature count tiling never pays (tiles would be narrower than
/// one vector register), even when the vertex count alone cannot fill lanes.
inline constexpr uint32_t kMinFeatureTile = 8;

}  // namespace stgraph::compiler
