// Structural invariant analyzer — the self-check machinery behind the
// hot paths (GPMA view rebuilds, the per-snapshot coefficient cache, the
// executor's stack protocol). Every
// checker re-derives an invariant from first principles and reports where
// the live structure disagrees:
//
//   * check_csr             — CSR well-formedness: monotone row offsets,
//                             in-bounds columns, edge labels a permutation
//                             of 0..m-1 (slot-ordered in gapped views).
//   * check_transpose       — forward/backward views describe the SAME
//                             edge set, matched through the shared labels.
//   * check_degree_order    — node_ids is a true permutation in the
//                             canonical (degree desc, id asc) order the
//                             paper's no-relabel scheduling relies on.
//   * check_degrees         — the degree arrays equal per-row live counts.
//   * check_gcn_coef        — the per-snapshot coefficient cache is
//                             bit-identical to a from-scratch recompute.
//   * check_snapshot_view   — all of the above over one SnapshotView.
//   * check_pma             — PMA key order/density/leaf-count agreement.
//   * check_pma_view_agreement — the gapped view arrays mirror the PMA
//                             slot array exactly (the invariant the
//                             view rebuild must preserve).
//   * check_program         — IR sanity: in-range inputs, finite
//                             constants, a program compile() accepts, and
//                             a derivable backward rule for every input
//                             (the autodiff contract).
//   * check_protocol_trace  — Algorithm-1 stack discipline replayed from
//                             an executor event trace: pushes and pops
//                             LIFO-balanced, drained at sequence end.
//   * check_executor_drained — both executor stacks empty right now.
//   * check_graph_at / check_graph — whole-object sweep over one / every
//                             timestamp, including the PMA cross-checks
//                             for GPMAGraph.
//   * check_wal             — serving write-ahead log: header, per-record
//                             CRC framing, a start record first, strictly
//                             monotonic time/version, and torn-tail
//                             detection.
//
// Checkers are read-only and allocation-light (O(V+E) scratch); they are
// wired behind STGRAPH_VALIDATE=1 (verify/validate.hpp), the
// `stgraph_check` CLI, and the seeded-corruption tests in
// tests/test_verify.cpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/ir.hpp"
#include "gpma/pma.hpp"
#include "graph/stgraph_base.hpp"
#include "verify/report.hpp"

namespace stgraph::core {
class TemporalExecutor;
}

namespace stgraph::verify {

/// CSR well-formedness of one adjacency direction. `which` labels findings
/// (e.g. "in_view"). Checks: non-null arrays, monotone row offsets
/// (compact: ro[0]=0 and ro[n]=m; gapped: ro[n] = slot capacity), columns
/// in bounds, eids a permutation of 0..m-1, and in gapped views that
/// column/eid gaps coincide and live eids ascend in slot order (the
/// relabel-in-slot-order contract).
Report check_csr(const CsrView& v, const std::string& which = "csr");

/// Forward and backward views agree edge-for-edge through the shared
/// labels: in_view (rows = dst) and out_view (rows = src) must induce the
/// same eid -> (src, dst) mapping.
Report check_transpose(const CsrView& in_view, const CsrView& out_view);

/// `order` is a permutation of 0..n-1 sorted canonically by
/// (deg[v] desc, v asc) — the strict total order the degree sort must
/// produce.
Report check_degree_order(const uint32_t* order, const uint32_t* deg,
                          uint32_t n, const std::string& which);

/// `deg[v]` equals the number of live (non-gap) slots of row v.
Report check_degrees(const CsrView& v, const uint32_t* deg,
                     const std::string& which);

/// The eid-indexed GCN-norm cache equals a from-scratch recompute from the
/// in-view and in-degrees, bit for bit. No-op when the view carries no
/// cache.
Report check_gcn_coef(const SnapshotView& v);

/// Composite check of everything a SnapshotView promises its kernels.
Report check_snapshot_view(const SnapshotView& v);

/// PMA structural invariants (sorted unique keys, density bounds) plus
/// per-leaf live-count agreement with the slot array.
Report check_pma(const Pma& pma);

/// The gapped out-view arrays mirror the PMA slot array exactly: same
/// capacity, gap pattern, and per-slot (src, dst) keys — the invariant the
/// view rebuild must preserve.
Report check_pma_view_agreement(const Pma& pma, const SnapshotView& v);

/// IR sanity: inputs in range, coefficient kinds valid, constants finite,
/// compiler::compile() accepts the program (the engine grid's term and
/// factor bounds), and a backward rule derivable for every feature input.
Report check_program(const compiler::Program& p);

/// Replay an executor event trace (TemporalExecutor::set_trace) and check
/// the Algorithm-1 protocol: Graph-Stack pops LIFO-match their pushes,
/// State-Stack tickets pop in reverse push order, and both stacks drain by
/// the end of the trace (aborts clear them).
Report check_protocol_trace(const std::vector<std::string>& trace);

/// Both executor stacks are empty right now (between-sequence invariant).
Report check_executor_drained(const core::TemporalExecutor& ex);

/// Position `g` at timestamp t and run every applicable checker on the
/// resulting view (plus the PMA cross-checks when `g` is a GPMAGraph).
Report check_graph_at(STGraphBase& g, uint32_t t);

/// check_graph_at over every timestamp, then a return sweep to t=0 so
/// delta-replaying formats also verify their backward roll.
Report check_graph(STGraphBase& g);

/// Serving WAL ("STGW") well-formedness: readable header, CRC-valid
/// records, a kStart record first (with defined features), per-record
/// feature matrices shaped consistently, time advancing by exactly one and
/// version strictly monotonic across records. A torn tail (trailing bytes
/// that fail length/CRC checks — the crash case) is reported as a finding
/// so the tool surfaces it, with a note that recover() truncates it.
Report check_wal(const std::string& path);

}  // namespace stgraph::verify
