#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>

#include "compiler/autodiff.hpp"
#include "compiler/kernel.hpp"
#include "core/executor.hpp"
#include "gpma/gpma_graph.hpp"
#include "serve/wal.hpp"

namespace stgraph::verify {
namespace {

// Cap the findings one checker emits: a corrupted array should read as a
// handful of representative violations, not one line per slot.
constexpr int kMaxFindingsPerChecker = 8;

/// "eid not seen yet" sentinel for the transpose cross-check.
constexpr uint64_t kUnset = ~0ULL;

class Failer {
 public:
  Failer(Report& r, std::string checker)
      : report_(r), checker_(std::move(checker)) {}

  template <typename... Args>
  void operator()(const Args&... args) {
    ++count_;
    if (count_ > kMaxFindingsPerChecker) return;
    std::ostringstream oss;
    (oss << ... << args);
    if (count_ == kMaxFindingsPerChecker) oss << " (further findings elided)";
    report_.fail(checker_, oss.str());
  }

 private:
  Report& report_;
  std::string checker_;
  int count_ = 0;
};

}  // namespace

Report check_csr(const CsrView& v, const std::string& which) {
  Report r;
  Failer fail(r, "check_csr/" + which);
  const uint32_t n = v.num_nodes;
  const uint32_t m = v.num_edges;

  r.note_check();
  if (!v.row_offset || (m > 0 && (!v.col_indices || !v.eids))) {
    fail("null adjacency arrays (row_offset=", static_cast<const void*>(
             v.row_offset),
         ", col_indices=", static_cast<const void*>(v.col_indices),
         ", eids=", static_cast<const void*>(v.eids), ")");
    return r;
  }

  // Row offsets: monotone; compact views span exactly [0, m], gapped views
  // end at the slot-array capacity.
  r.note_check();
  for (uint32_t i = 0; i < n; ++i) {
    if (v.row_offset[i] > v.row_offset[i + 1]) {
      fail("row_offset not monotone at row ", i, ": ", v.row_offset[i], " > ",
           v.row_offset[i + 1]);
    }
  }
  if (!v.has_gaps) {
    r.note_check();
    if (v.row_offset[0] != 0)
      fail("compact view row_offset[0] = ", v.row_offset[0], ", want 0");
    if (v.row_offset[n] != m)
      fail("compact view row_offset[", n, "] = ", v.row_offset[n],
           " != edge count ", m);
  }
  // Bound all content reads by the backing array length so a corrupted
  // offset cannot walk past the allocation: compact arrays hold exactly m
  // entries; gapped arrays hold ro[n] slots by construction.
  const uint32_t span_end =
      v.has_gaps ? v.row_offset[n] : std::min(v.row_offset[n], m);

  // Column / eid contents. Live eids must form a permutation of 0..m-1;
  // in a gapped view the gap pattern of cols and eids must coincide and
  // live eids must ascend in slot order (relabel-in-slot-order contract).
  std::vector<uint8_t> seen(m, 0);
  uint32_t live = 0;
  int64_t last_eid = -1;
  r.note_check();
  if (v.has_gaps) {
    for (uint32_t j = 0; j < v.row_offset[0]; ++j)
      if (v.col_indices[j] != kSpace) {
        fail("live slot ", j, " before row_offset[0]=", v.row_offset[0]);
        break;
      }
  }
  for (uint32_t row = 0; row < n; ++row) {
    for (uint32_t j = v.row_offset[row]; j < v.row_offset[row + 1]; ++j) {
      if (j >= span_end) break;  // bounded by the (possibly corrupt) offsets
      const uint32_t c = v.col_indices[j];
      const uint32_t e = v.eids[j];
      if (c == kSpace) {
        if (!v.has_gaps) {
          fail("gap sentinel in compact view at slot ", j, " (row ", row, ")");
        } else if (e != kSpace) {
          fail("slot ", j, " is a column gap but carries eid ", e);
        }
        continue;
      }
      ++live;
      if (c >= n) {
        fail("column out of bounds at slot ", j, ": ", c, " >= ", n);
        continue;
      }
      if (e >= m) {
        fail("eid out of bounds at slot ", j, ": ", e, " >= ", m);
        continue;
      }
      if (seen[e]) fail("duplicate eid ", e, " at slot ", j);
      seen[e] = 1;
      if (v.has_gaps) {
        if (static_cast<int64_t>(e) <= last_eid)
          fail("gapped-view eids not ascending in slot order: eid ", e,
               " at slot ", j, " after eid ", last_eid);
        last_eid = e;
      }
    }
  }
  r.note_check();
  if (live != m)
    fail("live entry count ", live, " != declared edge count ", m);
  return r;
}

Report check_transpose(const CsrView& in_view, const CsrView& out_view) {
  Report r;
  Failer fail(r, "check_transpose");
  r.note_check();
  if (in_view.num_edges != out_view.num_edges) {
    fail("edge counts disagree: in_view ", in_view.num_edges, " vs out_view ",
         out_view.num_edges);
    return r;
  }
  const uint32_t m = in_view.num_edges;
  if (m == 0) return r;
  if (!in_view.row_offset || !out_view.row_offset || !in_view.col_indices ||
      !out_view.col_indices || !in_view.eids || !out_view.eids) {
    fail("null arrays; run check_csr on each view first");
    return r;
  }

  auto collect = [m](const CsrView& v, bool rows_are_src) {
    std::vector<uint64_t> by_eid(m, kUnset);
    for (uint32_t row = 0; row < v.num_nodes; ++row) {
      for (uint32_t j = v.row_offset[row]; j < v.row_offset[row + 1]; ++j) {
        const uint32_t c = v.col_indices[j];
        if (c == kSpace) continue;
        const uint32_t e = v.eids[j];
        if (e >= m) continue;  // reported by check_csr
        const uint32_t src = rows_are_src ? row : c;
        const uint32_t dst = rows_are_src ? c : row;
        by_eid[e] = (static_cast<uint64_t>(src) << 32) | dst;
      }
    }
    return by_eid;
  };
  const std::vector<uint64_t> fwd = collect(in_view, /*rows_are_src=*/false);
  const std::vector<uint64_t> bwd = collect(out_view, /*rows_are_src=*/true);
  r.note_check();
  for (uint32_t e = 0; e < m; ++e) {
    if (fwd[e] == bwd[e] && fwd[e] != kUnset) continue;
    if (fwd[e] == kUnset)
      fail("eid ", e, " missing from the in-view");
    else if (bwd[e] == kUnset)
      fail("eid ", e, " missing from the out-view");
    else
      fail("eid ", e, " names edge (", static_cast<uint32_t>(bwd[e] >> 32),
           ",", static_cast<uint32_t>(bwd[e]), ") in the out-view but (",
           static_cast<uint32_t>(fwd[e] >> 32), ",",
           static_cast<uint32_t>(fwd[e]),
           ") in the in-view — transpose bijection broken");
  }
  return r;
}

Report check_degree_order(const uint32_t* order, const uint32_t* deg,
                          uint32_t n, const std::string& which) {
  Report r;
  Failer fail(r, "check_degree_order/" + which);
  r.note_check();
  if (n == 0) return r;
  if (!order || !deg) {
    fail("null order/degree arrays");
    return r;
  }
  std::vector<uint8_t> seen(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t v = order[i];
    if (v >= n) {
      fail("order[", i, "] = ", v, " out of range ", n);
      continue;
    }
    if (seen[v]) fail("vertex ", v, " appears twice (position ", i, ")");
    seen[v] = 1;
  }
  r.note_check();
  for (uint32_t i = 0; i + 1 < n; ++i) {
    const uint32_t a = order[i], b = order[i + 1];
    if (a >= n || b >= n) continue;
    // Canonical strict total order: (degree desc, id asc).
    const bool canonical = deg[a] != deg[b] ? deg[a] > deg[b] : a < b;
    if (!canonical)
      fail("not degree-sorted at position ", i, ": vertex ", a, " (deg ",
           deg[a], ") before vertex ", b, " (deg ", deg[b], ")");
  }
  return r;
}

Report check_degrees(const CsrView& v, const uint32_t* deg,
                     const std::string& which) {
  Report r;
  Failer fail(r, "check_degrees/" + which);
  r.note_check();
  if (!deg || !v.row_offset || (v.num_edges > 0 && !v.col_indices)) {
    if (v.num_nodes > 0) fail("null degree/adjacency arrays");
    return r;
  }
  for (uint32_t row = 0; row < v.num_nodes; ++row) {
    uint32_t live = 0;
    for (uint32_t j = v.row_offset[row]; j < v.row_offset[row + 1]; ++j)
      if (v.col_indices[j] != kSpace) ++live;
    if (live != deg[row])
      fail("degree array says ", deg[row], " for row ", row,
           " but the view holds ", live, " live neighbors");
  }
  return r;
}

Report check_gcn_coef(const SnapshotView& v) {
  Report r;
  Failer fail(r, "check_gcn_coef");
  if (!v.gcn_coef) return r;  // cache disabled: nothing to verify
  r.note_check();
  if (!v.in_degrees || !v.in_view.row_offset || !v.in_view.col_indices ||
      !v.in_view.eids) {
    fail("view carries a coefficient cache but no in-view to verify against");
    return r;
  }
  const uint32_t m = v.num_edges;
  for (uint32_t dst = 0; dst < v.in_view.num_nodes; ++dst) {
    const uint32_t dv = v.in_degrees[dst];
    for (uint32_t j = v.in_view.row_offset[dst];
         j < v.in_view.row_offset[dst + 1]; ++j) {
      const uint32_t src = v.in_view.col_indices[j];
      if (src == kSpace) continue;
      const uint32_t e = v.in_view.eids[j];
      if (e >= m || src >= v.num_nodes) continue;  // check_csr's findings
      const float want = gcn_norm_coef(v.in_degrees[src], dv);
      const float got = v.gcn_coef[e];
      // Bit-exact contract: cached and inline coefficients must agree to
      // the last bit (the kernel parity fuzz depends on it).
      if (std::memcmp(&want, &got, sizeof(float)) != 0)
        fail("cached coefficient for eid ", e, " (edge ", src, "->", dst,
             ") is ", got, ", recompute gives ", want);
    }
  }
  return r;
}

Report check_snapshot_view(const SnapshotView& v) {
  Report r;
  {
    Failer fail(r, "check_snapshot_view");
    r.note_check();
    if (v.in_view.num_edges != v.num_edges ||
        v.out_view.num_edges != v.num_edges)
      fail("edge counts disagree: view ", v.num_edges, ", in_view ",
           v.in_view.num_edges, ", out_view ", v.out_view.num_edges);
    if (v.in_view.num_nodes != v.num_nodes ||
        v.out_view.num_nodes != v.num_nodes)
      fail("node counts disagree: view ", v.num_nodes, ", in_view ",
           v.in_view.num_nodes, ", out_view ", v.out_view.num_nodes);
  }
  r.merge(check_csr(v.in_view, "in_view"));
  r.merge(check_csr(v.out_view, "out_view"));
  r.merge(check_transpose(v.in_view, v.out_view));
  r.merge(check_degrees(v.in_view, v.in_degrees, "in"));
  r.merge(check_degrees(v.out_view, v.out_degrees, "out"));
  if (v.in_view.node_ids)
    r.merge(check_degree_order(v.in_view.node_ids, v.in_degrees, v.num_nodes,
                               "fwd"));
  if (v.out_view.node_ids)
    r.merge(check_degree_order(v.out_view.node_ids, v.out_degrees,
                               v.num_nodes, "bwd"));
  r.merge(check_gcn_coef(v));
  return r;
}

Report check_pma(const Pma& pma) {
  Report r;
  Failer fail(r, "check_pma");
  r.note_check();
  std::string why;
  if (!pma.check_invariants(&why)) fail(why);

  // Per-leaf live counts agree with the slot array (batch routing's density
  // checks and lower_bound_slot's empty-leaf skip trust them).
  r.note_check();
  const uint64_t* slots = pma.slots().data();
  const std::size_t seg = pma.segment_size();
  const auto& counts = pma.leaf_counts();
  if (counts.size() * seg != pma.capacity()) {
    fail("leaf_counts covers ", counts.size() * seg, " slots, capacity is ",
         pma.capacity());
    return r;
  }
  for (std::size_t l = 0; l < counts.size(); ++l) {
    uint32_t live = 0;
    for (std::size_t i = l * seg; i < (l + 1) * seg; ++i)
      if (slots[i] != Pma::kEmptyKey) ++live;
    if (live != counts[l])
      fail("leaf ", l, " holds ", live, " live keys but leaf_counts says ",
           counts[l]);
  }
  return r;
}

Report check_pma_view_agreement(const Pma& pma, const SnapshotView& v) {
  Report r;
  Failer fail(r, "check_pma_view_agreement");
  const CsrView& out = v.out_view;
  r.note_check();
  if (!out.has_gaps || !out.row_offset || !out.col_indices) {
    fail("out-view is not a gapped PMA view");
    return r;
  }
  if (out.row_offset[out.num_nodes] != pma.capacity()) {
    fail("view spans ", out.row_offset[out.num_nodes],
         " slots, PMA capacity is ", pma.capacity());
    return r;
  }
  r.note_check();
  if (v.num_edges != pma.size())
    fail("view reports ", v.num_edges, " edges, PMA holds ", pma.size());

  const uint64_t* slots = pma.slots().data();
  r.note_check();
  for (uint32_t j = 0; j < out.row_offset[0]; ++j)
    if (slots[j] != Pma::kEmptyKey)
      fail("PMA slot ", j, " is live but lies before row_offset[0]=",
           out.row_offset[0]);
  std::size_t live = 0;
  for (uint32_t s = 0; s < out.num_nodes; ++s) {
    for (uint32_t j = out.row_offset[s]; j < out.row_offset[s + 1]; ++j) {
      const uint32_t c = out.col_indices[j];
      if (c == kSpace) {
        if (slots[j] != Pma::kEmptyKey)
          fail("view slot ", j, " is a gap but PMA slot holds key (",
               edge_key_src(slots[j]), ",", edge_key_dst(slots[j]), ")");
        continue;
      }
      ++live;
      const uint64_t want = make_edge_key(s, c);
      if (slots[j] != want) {
        if (slots[j] == Pma::kEmptyKey)
          fail("view slot ", j, " holds edge (", s, ",", c,
               ") but the PMA slot is empty");
        else
          fail("view slot ", j, " holds edge (", s, ",", c,
               ") but the PMA slot holds (", edge_key_src(slots[j]), ",",
               edge_key_dst(slots[j]), ")");
      }
    }
  }
  r.note_check();
  if (live != pma.size())
    fail("view holds ", live, " live slots, PMA reports ", pma.size());
  return r;
}

Report check_program(const compiler::Program& p) {
  Report r;
  Failer fail(r, "check_program");
  const int n_inputs = p.num_inputs();

  r.note_check();
  for (std::size_t t = 0; t < p.terms.size(); ++t) {
    const compiler::MessageTerm& term = p.terms[t];
    if (term.input < 0 || term.input >= n_inputs)
      fail("term ", t, " reads input slot ", term.input, ", program has ",
           n_inputs);
    for (const compiler::Coef& c : term.coefs) {
      if (static_cast<uint8_t>(c.kind) >
          static_cast<uint8_t>(compiler::CoefKind::kEdgeWeight))
        fail("term ", t, " has an invalid coefficient kind ",
             static_cast<int>(c.kind));
      if (c.kind == compiler::CoefKind::kConst && !std::isfinite(c.value))
        fail("term ", t, " has a non-finite constant coefficient ", c.value);
    }
  }
  r.note_check();
  if (p.include_self) {
    if (p.self_input < 0 || p.self_input >= n_inputs)
      fail("self term reads input slot ", p.self_input, ", program has ",
           n_inputs);
    for (const compiler::Coef& c : p.self_coefs)
      if (c.kind == compiler::CoefKind::kConst && !std::isfinite(c.value))
        fail("self term has a non-finite constant coefficient ", c.value);
  }
  r.note_check();
  if (!std::isfinite(p.out_scale))
    fail("out_scale is non-finite (", p.out_scale, ")");
  // The forward program must lower onto the engine grid: compile() is the
  // one authority on term and factor bounds, so ask it rather than copy
  // its rules here.
  r.note_check();
  try {
    (void)compiler::compile(p);
  } catch (const std::exception& e) {
    fail("compile() rejects the program: ", e.what());
  }

  // Every feature input must have a derivable backward rule — the traced
  // forward program is only executable end to end if autodiff accepts it.
  for (int input = 0; input < n_inputs; ++input) {
    r.note_check();
    try {
      const compiler::Program bwd = compiler::differentiate(p, input);
      (void)bwd;
    } catch (const std::exception& e) {
      fail("no backward rule for input ", input, ": ", e.what());
    }
  }
  r.note_check();
  try {
    (void)compiler::backward_needs(p);
  } catch (const std::exception& e) {
    fail("backward_needs analysis failed: ", e.what());
  }
  return r;
}

Report check_protocol_trace(const std::vector<std::string>& trace) {
  Report r;
  Failer fail(r, "check_protocol_trace");
  std::vector<uint32_t> graph_stack;
  std::vector<uint64_t> state_stack;
  auto suffix_num = [](const std::string& line, const char* prefix,
                       uint64_t* out) {
    const std::size_t plen = std::strlen(prefix);
    if (line.compare(0, plen, prefix) != 0) return false;
    *out = std::strtoull(line.c_str() + plen, nullptr, 10);
    return true;
  };
  r.note_check();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const std::string& line = trace[i];
    uint64_t n = 0;
    if (suffix_num(line, "push graph t=", &n)) {
      graph_stack.push_back(static_cast<uint32_t>(n));
    } else if (suffix_num(line, "pop graph t=", &n)) {
      if (graph_stack.empty()) {
        fail("event ", i, " '", line, "': Graph Stack already empty");
      } else if (graph_stack.back() != n) {
        fail("event ", i, " '", line, "': popped t=", n,
             " but the Graph Stack top is t=", graph_stack.back(),
             " — forward/backward order violated");
        graph_stack.pop_back();
      } else {
        graph_stack.pop_back();
      }
    } else if (suffix_num(line, "push state #", &n)) {
      state_stack.push_back(n);
    } else if (suffix_num(line, "pop state #", &n)) {
      if (state_stack.empty()) {
        fail("event ", i, " '", line, "': State Stack already empty");
      } else if (state_stack.back() != n) {
        fail("event ", i, " '", line, "': popped ticket #", n,
             " but the State Stack top is #", state_stack.back(),
             " — LIFO discipline violated");
        state_stack.pop_back();
      } else {
        state_stack.pop_back();
      }
    } else if (line.compare(0, 9, "abort seq") == 0) {
      graph_stack.clear();
      state_stack.clear();
    }
  }
  r.note_check();
  if (!graph_stack.empty())
    fail("trace ends with ", graph_stack.size(),
         " snapshots still on the Graph Stack (top t=", graph_stack.back(),
         ")");
  if (!state_stack.empty())
    fail("trace ends with ", state_stack.size(),
         " entries still on the State Stack (top #", state_stack.back(), ")");
  return r;
}

Report check_executor_drained(const core::TemporalExecutor& ex) {
  Report r;
  Failer fail(r, "check_executor_drained");
  r.note_check();
  if (!ex.state_stack().empty())
    fail("State Stack not drained: depth ", ex.state_stack().depth());
  if (!ex.graph_stack().empty())
    fail("Graph Stack not drained: depth ", ex.graph_stack().depth());
  return r;
}

Report check_graph_at(STGraphBase& g, uint32_t t) {
  const SnapshotView v = g.get_graph(t);
  Report r = check_snapshot_view(v);
  {
    Failer fail(r, "check_graph_at");
    r.note_check();
    if (g.num_edges_at(t) != v.num_edges)
      fail(g.format_name(), " reports ", g.num_edges_at(t),
           " edges at t=", t, " but the view holds ", v.num_edges);
  }
  if (auto* gpma = dynamic_cast<GpmaGraph*>(&g)) {
    r.merge(check_pma(gpma->pma()));
    r.merge(check_pma_view_agreement(gpma->pma(), v));
  }
  return r;
}

Report check_graph(STGraphBase& g) {
  Report r;
  const uint32_t T = g.num_timestamps();
  for (uint32_t t = 0; t < T; ++t) r.merge(check_graph_at(g, t));
  // Return sweep: delta-replaying formats roll their position structure
  // backward here, exercising the inverse-delta path too.
  if (g.is_dynamic() && T > 1) r.merge(check_graph_at(g, 0));
  return r;
}

Report check_wal(const std::string& path) {
  Report r;
  Failer fail(r, "check_wal");

  serve::wal::ReadResult rr;
  try {
    rr = serve::wal::read(path);  // header + per-record CRC framing
  } catch (const std::exception& e) {
    fail("unreadable WAL: ", e.what());
    return r;
  }
  r.note_check();  // header magic/version accepted

  if (rr.torn_tail)
    fail("torn tail: ", rr.total_bytes - rr.valid_bytes,
         " trailing bytes past the last valid record at offset ",
         rr.valid_bytes, " (Server::recover() truncates this)");
  r.note_check();

  if (rr.records.empty()) {
    fail("no valid records (a live log always starts with a start record)");
    return r;
  }
  if (rr.records.front().type != serve::wal::RecordType::kStart)
    fail("record 0 has type ",
         static_cast<int>(rr.records.front().type), ", want start (1)");
  r.note_check();

  const int64_t feat_cols =
      rr.records.front().features.defined() ? rr.records.front().features.cols()
                                            : -1;
  uint32_t prev_time = 0;
  uint64_t prev_version = 0;
  for (std::size_t i = 0; i < rr.records.size(); ++i) {
    const auto& rec = rr.records[i];
    if (i > 0 && rec.type != serve::wal::RecordType::kIngest)
      fail("record ", i, " has type ", static_cast<int>(rec.type),
           ", want ingest (2)");
    if (!rec.features.defined())
      fail("record ", i, " carries no feature matrix");
    else if (rec.features.cols() != feat_cols)
      fail("record ", i, " features have ", rec.features.cols(),
           " cols, want ", feat_cols, " (start record's width)");
    if (i > 0) {
      if (rec.time != prev_time + 1)
        fail("record ", i, " time ", rec.time, " does not advance t=",
             prev_time, " by exactly one");
      if (rec.version <= prev_version)
        fail("record ", i, " version ", rec.version,
             " not strictly greater than ", prev_version);
    }
    prev_time = rec.time;
    prev_version = rec.version;
    r.note_check();
  }
  return r;
}

}  // namespace stgraph::verify
