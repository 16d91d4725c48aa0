#include "gpma/gpma_graph.hpp"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "graph/csr.hpp"
#include "runtime/analyze.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scan.hpp"
#include "runtime/sort.hpp"
#include "runtime/thread_pool.hpp"
#include "util/check.hpp"
#include "verify/invariants.hpp"
#include "verify/validate.hpp"

namespace stgraph {
namespace {

// Dirty fraction of the slot array beyond which patching the views in
// place loses to the (parallel) full rebuild.
constexpr double kRebuildThreshold = 0.25;

bool pipeline_enabled_from_env() {
  const char* s = std::getenv("STGRAPH_PIPELINE");
  if (!s || !*s) return true;
  return !(std::string_view(s) == "off" || std::string_view(s) == "0" ||
           std::string_view(s) == "false");
}

void copy_buf(DeviceBuffer<uint32_t>& dst, const DeviceBuffer<uint32_t>& src) {
  dst.resize(src.size());
  if (src.size())
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(uint32_t));
}

void copy_buf(DeviceBuffer<float>& dst, const DeviceBuffer<float>& src) {
  dst.resize(src.size());
  if (src.size())
    std::memcpy(dst.data(), src.data(), src.size() * sizeof(float));
}

}  // namespace

void reverse_gpma(uint32_t num_nodes, const DeviceBuffer<uint32_t>& row_offset,
                  const DeviceBuffer<uint32_t>& col,
                  const DeviceBuffer<uint32_t>& eids,
                  const DeviceBuffer<uint32_t>& in_degrees, uint32_t num_edges,
                  DeviceBuffer<uint32_t>& r_row_offset,
                  DeviceBuffer<uint32_t>& r_col,
                  DeviceBuffer<uint32_t>& r_eids) {
  // Line 1: row starts = exclusive prefix sum of the in-degrees.
  r_row_offset.resize(num_nodes + 1);
  const uint32_t total =
      device::exclusive_scan(in_degrees.data(), r_row_offset.data(), num_nodes);
  r_row_offset[num_nodes] = total;
  STG_CHECK(total == num_edges, "in-degree sum ", total, " != edge count ",
            num_edges);

  // Lines 2-3: output arrays (heap capacity is reused across rebuilds).
  r_col.resize(num_edges);
  r_eids.resize(num_edges);
  if (num_edges == 0) return;

  const uint32_t* ro = row_offset.data();
  const uint32_t* pc = col.data();
  const uint32_t* pe = eids.data();
  uint32_t* rc = r_col.data();
  uint32_t* re = r_eids.data();

  // Lines 4-16: scatter sources into their destinations' lists. Every
  // per-destination list comes out in ascending source order: lanes own
  // contiguous source blocks, scan them left to right, and start from a
  // cursor seeded with the scatter extent of all lower lanes. The output
  // is therefore identical for any lane count (and matches the sequential
  // scatter bit for bit) — unlike an atomic fetch_sub cursor, whose list
  // order depends on thread interleaving.
  const unsigned lanes = device::lane_count();
  const bool matrix_too_big =
      static_cast<std::size_t>(lanes) * num_nodes >
      4 * static_cast<std::size_t>(num_edges);
  if (lanes == 1 || num_edges < (1u << 14) || matrix_too_big) {
    std::vector<uint32_t> cursor(r_row_offset.data(),
                                 r_row_offset.data() + num_nodes);
    for (uint32_t v = 0; v < num_nodes; ++v) {
      for (uint32_t j = ro[v]; j < ro[v + 1]; ++j) {
        const uint32_t dst = pc[j];
        if (dst == kSpace) continue;  // line 10: skip gap slots
        const uint32_t loc = cursor[dst]++;
        rc[loc] = v;
        re[loc] = pe[j];
      }
    }
    return;
  }

  // counts[r * num_nodes + d] = edges into d from lane r's source block.
  static thread_local std::vector<uint32_t> counts;
  counts.assign(static_cast<std::size_t>(lanes) * num_nodes, 0);
  uint32_t* cnt_base = counts.data();
  const uint32_t chunk = (num_nodes + lanes - 1) / lanes;
  device::parallel_for_ranges(
      lanes,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          uint32_t* cnt = cnt_base + r * num_nodes;
          const uint32_t vb = static_cast<uint32_t>(r) * chunk;
          const uint32_t ve = std::min<uint32_t>(num_nodes, vb + chunk);
          for (uint32_t v = vb; v < ve; ++v)
            for (uint32_t j = ro[v]; j < ro[v + 1]; ++j)
              if (pc[j] != kSpace) ++cnt[pc[j]];
        }
      },
      /*grain=*/1);
  // Turn counts into per-lane cursors: cursor[r][d] = start of d's list +
  // edges into d from lanes < r (a transposed exclusive scan).
  const uint32_t* starts = r_row_offset.data();
  device::parallel_for_ranges(num_nodes, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t d = lo; d < hi; ++d) {
      uint32_t run = starts[d];
      for (unsigned r = 0; r < lanes; ++r) {
        const uint32_t c = cnt_base[r * num_nodes + d];
        cnt_base[r * num_nodes + d] = run;
        run += c;
      }
    }
  });
  device::parallel_for_ranges(
      lanes,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          uint32_t* cursor = cnt_base + r * num_nodes;
          const uint32_t vb = static_cast<uint32_t>(r) * chunk;
          const uint32_t ve = std::min<uint32_t>(num_nodes, vb + chunk);
          for (uint32_t v = vb; v < ve; ++v)
            for (uint32_t j = ro[v]; j < ro[v + 1]; ++j) {
              const uint32_t dst = pc[j];
              if (dst == kSpace) continue;
              const uint32_t loc = cursor[dst]++;
              rc[loc] = v;
              re[loc] = pe[j];
            }
        }
      },
      /*grain=*/1);
}

GpmaGraph::GpmaGraph(const DtdgEvents& events)
    : num_nodes_(events.num_nodes),
      col_(0, MemCategory::kPma),
      eids_(0, MemCategory::kPma),
      row_offset_(0, MemCategory::kPma),
      fwd_order_(0, MemCategory::kPma),
      bwd_order_(0, MemCategory::kPma),
      r_row_offset_(0, MemCategory::kGraph),
      r_col_(0, MemCategory::kGraph),
      r_eids_(0, MemCategory::kGraph),
      gcn_coef_(0, MemCategory::kGraph),
      gcn_coef_scratch_(0, MemCategory::kGraph),
      r_row_offset_scratch_(0, MemCategory::kGraph),
      r_col_scratch_(0, MemCategory::kGraph),
      r_eids_scratch_(0, MemCategory::kGraph),
      order_scratch_(0, MemCategory::kPma) {
  // Base snapshot: one batch insert of all base edges.
  std::vector<uint64_t> base_keys;
  base_keys.reserve(events.base_edges.size());
  std::vector<uint32_t> in_deg(num_nodes_, 0), out_deg(num_nodes_, 0);
  for (const auto& [s, d] : events.base_edges) {
    base_keys.push_back(make_edge_key(s, d));
    ++out_deg[s];
    ++in_deg[d];
  }
  const std::size_t inserted = pma_.insert_batch(std::move(base_keys));
  STG_CHECK(inserted == events.base_edges.size(),
            "base edge list contains duplicates");
  in_deg_ = DeviceBuffer<uint32_t>(in_deg, MemCategory::kPma);
  out_deg_ = DeviceBuffer<uint32_t>(out_deg, MemCategory::kPma);

  // Upload deltas (this is the entire per-timestamp structural storage —
  // the memory win over NaiveGraph).
  edges_at_.push_back(static_cast<uint32_t>(events.base_edges.size()));
  deltas_.reserve(events.deltas.size());
  for (const EdgeDelta& d : events.deltas) {
    DeviceDelta dd;
    std::vector<uint64_t> add, del;
    add.reserve(d.additions.size());
    del.reserve(d.deletions.size());
    for (const auto& [s, dn] : d.additions) add.push_back(make_edge_key(s, dn));
    for (const auto& [s, dn] : d.deletions) del.push_back(make_edge_key(s, dn));
    dd.additions = DeviceBuffer<uint64_t>(add, MemCategory::kGraph);
    dd.deletions = DeviceBuffer<uint64_t>(del, MemCategory::kGraph);
    edges_at_.push_back(edges_at_.back() +
                        static_cast<uint32_t>(add.size()) -
                        static_cast<uint32_t>(del.size()));
    deltas_.push_back(std::move(dd));
  }
  pipeline_enabled_ = pipeline_enabled_from_env();
  refresh_views();
}

GpmaGraph::~GpmaGraph() {
  if (!worker_.joinable()) return;
  {
    MutexLock lock(pmu_);
    // Let an in-flight prepare() finish: it holds pointers into live
    // members that must outlive it, and join() below only returns after
    // the loop observes pf_stop_.
    pf_stop_ = true;
    pcv_.notify_all();
  }
  if (analyze::armed()) analyze::on_blocking_call("thread-join");
  worker_.join();
}

void GpmaGraph::append_delta(const EdgeDelta& delta) {
  sync();  // the worker reads deltas_/edges_at_ while positioning
  // Validate everything before mutating: after the push_backs below the
  // new timestamp is committed and the PMA will replay it on demand.
  for (const auto& [s, d] : delta.additions)
    STG_CHECK(s < num_nodes_ && d < num_nodes_, "appended delta adds edge (",
              s, ",", d, ") outside the ", num_nodes_, "-node graph");
  for (const auto& [s, d] : delta.deletions)
    STG_CHECK(s < num_nodes_ && d < num_nodes_,
              "appended delta deletes edge (", s, ",", d, ") outside the ",
              num_nodes_, "-node graph");
  const uint32_t prev_edges = edges_at_.back();
  STG_CHECK(prev_edges + delta.additions.size() >= delta.deletions.size(),
            "appended delta deletes more edges (", delta.deletions.size(),
            ") than the snapshot holds (", prev_edges, " + ",
            delta.additions.size(), " additions)");

  DeviceDelta dd;
  std::vector<uint64_t> add, del;
  add.reserve(delta.additions.size());
  del.reserve(delta.deletions.size());
  for (const auto& [s, d] : delta.additions) add.push_back(make_edge_key(s, d));
  for (const auto& [s, d] : delta.deletions) del.push_back(make_edge_key(s, d));
  dd.additions = DeviceBuffer<uint64_t>(add, MemCategory::kGraph);
  dd.deletions = DeviceBuffer<uint64_t>(del, MemCategory::kGraph);
  edges_at_.push_back(prev_edges + static_cast<uint32_t>(add.size()) -
                      static_cast<uint32_t>(del.size()));
  deltas_.push_back(std::move(dd));
}

uint32_t GpmaGraph::num_edges_at(uint32_t t) const {
  STG_CHECK(t < edges_at_.size(), "timestamp ", t, " out of range ",
            edges_at_.size());
  return edges_at_[t];
}

void GpmaGraph::apply_delta(uint32_t idx, bool forward) {
  // Rolling forward over delta idx applies (erase deletions, insert
  // additions); rolling backward inverts it.
  const DeviceDelta& d = deltas_[idx];
  const auto& to_erase = forward ? d.deletions : d.additions;
  const auto& to_insert = forward ? d.additions : d.deletions;
  const std::size_t erased = pma_.erase_batch(to_erase.to_host());
  const std::size_t inserted = pma_.insert_batch(to_insert.to_host());
  STG_CHECK(erased == to_erase.size() && inserted == to_insert.size(),
            "delta ", idx, " did not apply cleanly (erase ", erased, "/",
            to_erase.size(), ", insert ", inserted, "/", to_insert.size(),
            ")");
  // Incremental degree maintenance + view-delta bookkeeping (the STG_CHECK
  // above guarantees every listed key really hit the PMA, so the pending
  // lists mirror the slot-array mutations exactly).
  for (uint64_t k : to_erase) {
    --out_deg_[edge_key_src(k)];
    --in_deg_[edge_key_dst(k)];
    pending_del_.push_back(k);
  }
  for (uint64_t k : to_insert) {
    ++out_deg_[edge_key_src(k)];
    ++in_deg_[edge_key_dst(k)];
    pending_add_.push_back(k);
  }
  ++delta_replays_;
}

void GpmaGraph::save_cache() {
  cache_pma_ = pma_.clone();
  cache_in_deg_ = in_deg_.to_host();
  cache_out_deg_ = out_deg_.to_host();
  cache_time_ = curr_time_;
}

void GpmaGraph::restore_cache() {
  pma_ = cache_pma_->clone();
  std::copy(cache_in_deg_.begin(), cache_in_deg_.end(), in_deg_.data());
  std::copy(cache_out_deg_.begin(), cache_out_deg_.end(), out_deg_.data());
  curr_time_ = cache_time_;
  views_fresh_ = false;
  // The restored PMA's slot layout has nothing to do with the one the
  // current views were built from (its dirty bitmap describes mutations
  // relative to a different history), so the next refresh must not trust
  // the pending lists. Full rebuild only.
  views_force_full_ = true;
  pending_add_.clear();
  pending_del_.clear();
}

void GpmaGraph::position(uint32_t target) {
  STG_CHECK(target < num_timestamps(), "timestamp ", target, " out of range ",
            num_timestamps());
  if (target == curr_time_) return;
  ++live_epoch_;  // any movement ends published snapshots' byte-equality
  if (target < curr_time_) {
    // First backward roll of a sequence: cache the furthest-forward state
    // so the next sequence's forward pass resumes from it instead of
    // replaying every delta (Algorithm 2 lines 1-5 / line 10).
    if (cache_enabled_ && (!cache_pma_ || cache_time_ < curr_time_))
      save_cache();
    while (curr_time_ > target) {
      apply_delta(curr_time_ - 1, /*forward=*/false);
      --curr_time_;
    }
  } else {
    if (cache_enabled_ && cache_pma_ && cache_time_ <= target &&
        cache_time_ > curr_time_) {
      restore_cache();
    }
    while (curr_time_ < target) {
      apply_delta(curr_time_, /*forward=*/true);
      ++curr_time_;
    }
  }
  views_fresh_ = false;
}

void GpmaGraph::refresh_views() {
  bool incremental = false;
  if (incremental_views_enabled_ && !views_force_full_ &&
      !pma_.dirty_global() && col_.size() == pma_.capacity() &&
      row_offset_.size() == static_cast<std::size_t>(num_nodes_) + 1) {
    incremental = incremental_update();
  }
  if (incremental) {
    ++incremental_view_updates_;
  } else {
    full_rebuild_views();
    ++full_view_rebuilds_;
  }
  pending_add_.clear();
  pending_del_.clear();
  pma_.clear_dirty();
  views_force_full_ = false;
  views_fresh_ = true;

  // STGRAPH_VALIDATE: audit the freshly patched (or rebuilt) views against
  // the PMA before any kernel consumes them, so a bad incremental patch
  // fails here rather than as a wrong gradient downstream.
  if (verify::validation_enabled()) {
    const SnapshotView v = make_view();
    verify::Report r = verify::check_snapshot_view(v);
    r.merge(verify::check_pma(pma_));
    r.merge(verify::check_pma_view_agreement(pma_, v));
    verify::require_ok(r, "GpmaGraph::refresh_views(t=" +
                              std::to_string(curr_time_) + ")");
  }
}

void GpmaGraph::full_rebuild_views() {
  const std::size_t cap = pma_.capacity();
  const uint32_t m = static_cast<uint32_t>(pma_.size());
  const uint32_t n = num_nodes_;

  // Edge relabelling in slot order (Algorithm 2 line 8) + the dst/eid slot
  // arrays + row offsets over slot positions. Buffers are resized in
  // place; their heap capacity persists across refreshes.
  col_.resize(cap);
  eids_.resize(cap);
  row_offset_.resize(static_cast<std::size_t>(n) + 1);
  const uint64_t* slots = pma_.slots().data();
  uint32_t* pc = col_.data();
  uint32_t* pe = eids_.data();
  uint32_t* ro = row_offset_.data();

  const unsigned lanes = device::lane_count();
  if (lanes == 1 || cap < (1u << 14)) {
    uint32_t next_eid = 0;
    uint32_t next_row = 0;
    for (std::size_t i = 0; i < cap; ++i) {
      if (slots[i] == Pma::kEmptyKey) {
        pc[i] = kSpace;
        pe[i] = kSpace;
        continue;
      }
      const uint32_t src = edge_key_src(slots[i]);
      while (next_row <= src) ro[next_row++] = static_cast<uint32_t>(i);
      pc[i] = edge_key_dst(slots[i]);
      pe[i] = next_eid++;
    }
    while (next_row <= n) ro[next_row++] = static_cast<uint32_t>(cap);
    STG_CHECK(next_eid == m, "relabel pass saw ", next_eid,
              " edges, expected ", m);
  } else {
    // Parallel relabel: per-range live counts, a prefix sum into per-range
    // edge-id bases, then an independent fill per range. The row-offset
    // boundary writes are disjoint across ranges once each range knows
    // the last live source before it (per-range carry chain).
    const std::size_t R = lanes;
    const std::size_t chunk = (cap + R - 1) / R;
    std::vector<uint32_t> live(R, 0);
    std::vector<int64_t> last_src(R, -1);
    device::parallel_for_ranges(
        R,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            const std::size_t b = r * chunk, e = std::min(cap, b + chunk);
            uint32_t cnt = 0;
            int64_t last = -1;
            for (std::size_t i = b; i < e; ++i)
              if (slots[i] != Pma::kEmptyKey) {
                ++cnt;
                last = edge_key_src(slots[i]);
              }
            live[r] = cnt;
            last_src[r] = last;
          }
        },
        /*grain=*/1);
    std::vector<uint32_t> base(R + 1, 0);
    for (std::size_t r = 0; r < R; ++r) base[r + 1] = base[r] + live[r];
    STG_CHECK(base[R] == m, "relabel pass saw ", base[R], " edges, expected ",
              m);
    std::vector<int64_t> carry(R, -1);  // last live src strictly before range r
    for (std::size_t r = 1; r < R; ++r)
      carry[r] = last_src[r - 1] >= 0 ? last_src[r - 1] : carry[r - 1];
    const int64_t global_last =
        last_src[R - 1] >= 0 ? last_src[R - 1] : carry[R - 1];
    device::parallel_for_ranges(
        R,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t r = lo; r < hi; ++r) {
            const std::size_t b = r * chunk, e = std::min(cap, b + chunk);
            uint32_t eid = base[r];
            int64_t prev = carry[r];
            for (std::size_t i = b; i < e; ++i) {
              if (slots[i] == Pma::kEmptyKey) {
                pc[i] = kSpace;
                pe[i] = kSpace;
                continue;
              }
              const uint32_t src = edge_key_src(slots[i]);
              for (int64_t v = prev + 1; v <= src; ++v)
                ro[v] = static_cast<uint32_t>(i);
              prev = src;
              pc[i] = edge_key_dst(slots[i]);
              pe[i] = eid++;
            }
          }
        },
        /*grain=*/1);
    for (int64_t v = global_last + 1; v <= static_cast<int64_t>(n); ++v)
      ro[v] = static_cast<uint32_t>(cap);
  }

  // Degree-sorted processing orders (paper Figure 3 auxiliary node_ids).
  const uint32_t* ind = in_deg_.data();
  const uint32_t* outd = out_deg_.data();
  const auto fwd = device::sort_indices(
      n, [ind](uint32_t a, uint32_t b) { return ind[a] > ind[b]; });
  const auto bwd = device::sort_indices(
      n, [outd](uint32_t a, uint32_t b) { return outd[a] > outd[b]; });
  fwd_order_.resize(n);
  bwd_order_.resize(n);
  if (n) {
    std::memcpy(fwd_order_.data(), fwd.data(), n * sizeof(uint32_t));
    std::memcpy(bwd_order_.data(), bwd.data(), n * sizeof(uint32_t));
  }

  // Algorithm 3: compacted reverse CSR for the forward pass.
  reverse_gpma(n, row_offset_, col_, eids_, in_deg_, m, r_row_offset_, r_col_,
               r_eids_);

  // Per-snapshot GCN-norm cache, consumed by the kernel engine.
  rebuild_coef_cache();
}

void GpmaGraph::rebuild_coef_cache() {
  if (!coef_cache_enabled_) {
    gcn_coef_.resize(0);
    return;
  }
  const uint32_t m = static_cast<uint32_t>(pma_.size());
  gcn_coef_.resize(m);
  const uint32_t* rro = r_row_offset_.data();
  const uint32_t* rc = r_col_.data();
  const uint32_t* re = r_eids_.data();
  const uint32_t* ind = in_deg_.data();
  float* gc = gcn_coef_.data();
  device::parallel_for_ranges(num_nodes_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      const uint32_t dv = ind[v];
      for (uint32_t j = rro[v]; j < rro[v + 1]; ++j)
        gc[re[j]] = gcn_norm_coef(ind[rc[j]], dv);
    }
  });
}

void GpmaGraph::set_coef_cache_enabled(bool enabled) {
  sync();
  coef_cache_enabled_ = enabled;
  if (!enabled) {
    gcn_coef_.resize(0);
    gcn_coef_scratch_.resize(0);
  } else if (views_fresh_) {
    rebuild_coef_cache();
  }
  // Published copies carry the old cache setting; drop them.
  pub_[0].valid = false;
  pub_[1].valid = false;
}

void GpmaGraph::set_pipeline_enabled(bool enabled) {
  sync();
  pipeline_enabled_ = enabled;
}

void GpmaGraph::repair_order(DeviceBuffer<uint32_t>& order, const uint32_t* deg,
                             std::vector<uint32_t>& affected) {
  // `order` is sorted under (deg desc, id asc) for the degrees of the last
  // refresh; only the vertices in `affected` changed degree. Dropping them
  // from the stream keeps it sorted, so one merge against the (sorted)
  // affected list restores the canonical order. The order is a strict
  // total order (ties broken by id), so the result is exactly what a full
  // sort would produce.
  const uint32_t n = num_nodes_;
  auto canon = [deg](uint32_t a, uint32_t b) {
    return deg[a] != deg[b] ? deg[a] > deg[b] : a < b;
  };
  std::sort(affected.begin(), affected.end(), canon);
  if (order_mark_.size() < n) order_mark_.assign(n, 0);
  for (uint32_t v : affected) order_mark_[v] = 1;
  order_scratch_.resize(n);
  const uint32_t* src = order.data();
  uint32_t* out = order_scratch_.data();
  std::size_t ai = 0, w = 0, skipped = 0;
  for (uint32_t i = 0; i < n; ++i) {
    // Once every affected vertex is re-inserted and every marked survivor
    // dropped, positions align (w == i) and the tail is already in place.
    if (ai == affected.size() && skipped == ai) {
      std::memcpy(out + w, src + i, (n - i) * sizeof(uint32_t));
      w += n - i;
      break;
    }
    const uint32_t v = src[i];
    if (order_mark_[v]) {
      ++skipped;  // re-inserted from `affected`
      continue;
    }
    while (ai < affected.size() && canon(affected[ai], v))
      out[w++] = affected[ai++];
    out[w++] = v;
  }
  while (ai < affected.size()) out[w++] = affected[ai++];
  STG_CHECK(w == n, "order repair wrote ", w, " of ", n, " vertices");
  std::swap(order, order_scratch_);
  for (uint32_t v : affected) order_mark_[v] = 0;
}

bool GpmaGraph::incremental_update() {
  const std::size_t cap = pma_.capacity();
  const std::size_t seg = pma_.segment_size();
  const uint32_t n = num_nodes_;
  const uint32_t old_m = static_cast<uint32_t>(r_col_.size());
  const uint32_t new_m = static_cast<uint32_t>(pma_.size());

  // ---- dirty windows: merged runs of dirty leaf segments ----------------
  struct Window {
    std::size_t lo, hi;           // slot range (leaf-aligned)
    uint32_t new_rank, old_rank;  // label of the window's first live slot
    uint32_t new_live, old_live;  // live slots inside, after/before
  };
  const auto& dl = pma_.dirty_leaves();
  std::vector<Window> windows;
  std::size_t dirty_slots = 0;
  for (std::size_t l = 0; l < dl.size();) {
    if (!dl[l]) {
      ++l;
      continue;
    }
    std::size_t r = l;
    while (r < dl.size() && dl[r]) ++r;
    windows.push_back({l * seg, r * seg, 0, 0, 0, 0});
    dirty_slots += (r - l) * seg;
    l = r;
  }
  if (windows.empty()) {
    // No slot moved. Pending keys would contradict that (every pending key
    // blanked or redistributed a slot), so treat the mismatch as
    // unpatchable instead of trusting either record.
    return pending_add_.empty() && pending_del_.empty();
  }
  if (static_cast<double>(dirty_slots) >
      kRebuildThreshold * static_cast<double>(cap))
    return false;

  // ---- per-window label ranks -------------------------------------------
  // New first-label of each window from one pass over the per-leaf live
  // counts; old first-label derived from it and the cumulative live-count
  // delta of the preceding windows (slots outside windows are untouched,
  // so their live counts cancel).
  {
    const auto& lc = pma_.leaf_counts();
    std::size_t leaf = 0;
    uint32_t prefix = 0;
    int64_t cum = 0;
    for (Window& w : windows) {
      for (; leaf < w.lo / seg; ++leaf) prefix += lc[leaf];
      w.new_rank = prefix;
      for (; leaf < w.hi / seg; ++leaf) prefix += lc[leaf];
      w.new_live = prefix - w.new_rank;
      uint32_t ol = 0;
      for (std::size_t i = w.lo; i < w.hi; ++i)
        ol += col_[i] != kSpace;  // branchless: gaps sit at random positions
      w.old_live = ol;
      w.old_rank =
          static_cast<uint32_t>(static_cast<int64_t>(w.new_rank) - cum);
      cum += static_cast<int64_t>(w.new_live) - static_cast<int64_t>(ol);
    }
    STG_CHECK(cum == static_cast<int64_t>(new_m) - static_cast<int64_t>(old_m),
              "window live-count delta ", cum, " != label-count delta ",
              static_cast<int64_t>(new_m) - static_cast<int64_t>(old_m));
  }

  // ---- capture the windows' old edges (key, old label) ------------------
  // Must happen before any patching: sources come from the old row
  // offsets, labels from the old eids. Live slots in slot order are in key
  // order, and windows are disjoint ascending slot ranges, so the combined
  // capture comes out sorted by key — ready for the diff merge below.
  win_old_keys_.clear();
  win_old_eids_.clear();
  win_old_keys_.reserve(dirty_slots);
  win_old_eids_.reserve(dirty_slots);
  {
    const uint32_t* oro = row_offset_.data();
    for (const Window& w : windows) {
      // Owner of slot i = last row whose old region starts at or before i
      // (empty rows collapse onto the same offset).
      uint32_t src = static_cast<uint32_t>(
                         std::upper_bound(oro, oro + n + 1,
                                          static_cast<uint32_t>(w.lo)) -
                         oro) -
                     1;
      for (std::size_t i = w.lo; i < w.hi; ++i) {
        if (col_[i] == kSpace) continue;
        while (src + 1 < n && oro[src + 1] <= i) ++src;
        win_old_keys_.push_back(make_edge_key(src, col_[i]));
        win_old_eids_.push_back(eids_[i]);
      }
    }
  }

  // ---- patch col_/eids_ inside the windows ------------------------------
  // Same pass records the new (key, label) contents, also sorted by key.
  const uint64_t* slots = pma_.slots().data();
  win_new_keys_.clear();
  win_new_eids_.clear();
  win_new_keys_.reserve(dirty_slots);
  win_new_eids_.reserve(dirty_slots);
  for (const Window& w : windows) {
    uint32_t eid = w.new_rank;
    for (std::size_t i = w.lo; i < w.hi; ++i) {
      if (slots[i] == Pma::kEmptyKey) {
        col_[i] = kSpace;
        eids_[i] = kSpace;
        continue;
      }
      col_[i] = edge_key_dst(slots[i]);
      eids_[i] = eid;
      win_new_keys_.push_back(slots[i]);
      win_new_eids_.push_back(eid);
      ++eid;
    }
    STG_CHECK(eid == w.new_rank + w.new_live, "window relabel saw ",
              eid - w.new_rank, " live slots, leaf counts said ", w.new_live);
  }

  // ---- diff the window contents: remap table + net key delta ------------
  // One two-pointer merge over the sorted captures classifies every window
  // key: present on both sides -> survivor (old label maps to new label),
  // old side only -> net delete, new side only -> net add (with its new
  // label attached — the reverse splice needs it). Every inserted or
  // blanked slot lives in a dirty leaf, so this diff is authoritative; the
  // pending lists are only the cheap emptiness cross-check above.
  // Labels outside the windows move by a per-region constant, which fills
  // the rest of the old-label -> new-label table without touching keys.
  std::vector<uint64_t> net_add, net_del;
  std::vector<uint32_t> net_add_eid;
  eid_remap_.resize(old_m);
  {
    uint32_t* rm = eid_remap_.data();
    // Clean regions: labels [0, first window) keep their value; labels in
    // the region after window k move by the windows' cumulative live-count
    // delta so far.
    int64_t cum = 0;
    uint32_t prev_hi_label = 0;
    for (const Window& w : windows) {
      const uint32_t lo_label = w.old_rank;
      if (cum == 0) {
        for (uint32_t e = prev_hi_label; e < lo_label; ++e) rm[e] = e;
      } else {
        for (uint32_t e = prev_hi_label; e < lo_label; ++e)
          rm[e] = static_cast<uint32_t>(static_cast<int64_t>(e) + cum);
      }
      cum += static_cast<int64_t>(w.new_live) - static_cast<int64_t>(w.old_live);
      prev_hi_label = w.old_rank + w.old_live;
    }
    for (uint32_t e = prev_hi_label; e < old_m; ++e)
      rm[e] = static_cast<uint32_t>(static_cast<int64_t>(e) + cum);

    std::size_t i = 0, j = 0;
    const std::size_t no = win_old_keys_.size(), nn = win_new_keys_.size();
    while (i < no || j < nn) {
      if (j >= nn || (i < no && win_old_keys_[i] < win_new_keys_[j])) {
        rm[win_old_eids_[i]] = kSpace;  // net delete: label disappears
        net_del.push_back(win_old_keys_[i]);
        ++i;
      } else if (i >= no || win_new_keys_[j] < win_old_keys_[i]) {
        net_add.push_back(win_new_keys_[j]);
        net_add_eid.push_back(win_new_eids_[j]);
        ++j;
      } else {
        rm[win_old_eids_[i]] = win_new_eids_[j];  // survivor
        ++i;
        ++j;
      }
    }
  }
  STG_CHECK(old_m + net_add.size() == new_m + net_del.size(),
            "net delta inconsistent: ", old_m, " + ", net_add.size(),
            " adds != ", new_m, " + ", net_del.size(), " dels");

  // ---- shift labels in the untouched regions ----------------------------
  // Every label after window k moves by the cumulative live-count delta of
  // windows 0..k; slots (and hence label positions) there do not move.
  {
    uint32_t* pe = eids_.data();
    int64_t shift = 0;
    for (std::size_t k = 0; k < windows.size(); ++k) {
      shift += static_cast<int64_t>(windows[k].new_live) -
               static_cast<int64_t>(windows[k].old_live);
      const std::size_t lo = windows[k].hi;
      const std::size_t hi =
          (k + 1 < windows.size()) ? windows[k + 1].lo : cap;
      if (shift == 0 || lo >= hi) continue;
      // Branchless select so the loop vectorizes: gap slots sit at random
      // positions, and a data-dependent branch mispredicts on ~every gap.
      // The wrapping uint32 add is exact for live labels (always < 2^31).
      const uint32_t s = static_cast<uint32_t>(shift);
      device::parallel_for_ranges(
          hi - lo, [pe, lo, s](std::size_t b, std::size_t e) {
            for (std::size_t i = lo + b; i < lo + e; ++i) {
              const uint32_t x = pe[i];
              pe[i] = x == kSpace ? x : x + s;
            }
          });
    }
  }

  // ---- repair the row offsets with one forward sweep --------------------
  // Invariant maintained by both paths: row_offset_[v] = first live slot
  // whose source is >= v, else capacity. Rows whose old offset points at
  // an untouched slot are still correct unless an earlier window settled
  // them; rows whose old offset points into a consumed window are stale
  // and resolve to the first live slot of the region being scanned (any
  // untouched live slot past their old offset has source >= the row, since
  // the old array was key-sorted).
  {
    uint32_t* ro = row_offset_.data();
    uint32_t next_row = 0;
    std::size_t prev_hi = 0;
    for (const Window& w : windows) {
      bool have_f = false;
      std::size_t f = cap;
      while (next_row <= n) {
        const uint32_t old_v = ro[next_row];
        if (old_v >= w.lo) break;  // settled by this window or later
        if (old_v >= prev_hi) {    // untouched slot, still the region start
          ++next_row;
          continue;
        }
        if (!have_f) {
          f = pma_.first_live_slot_at_or_after(prev_hi);
          have_f = true;
        }
        if (f >= w.lo) break;  // region empty; the window scan takes over
        ro[next_row++] = static_cast<uint32_t>(f);
      }
      for (std::size_t i = w.lo; i < w.hi; ++i) {
        if (slots[i] == Pma::kEmptyKey) continue;
        const uint32_t src = edge_key_src(slots[i]);
        while (next_row <= src) ro[next_row++] = static_cast<uint32_t>(i);
      }
      prev_hi = w.hi;
    }
    bool have_f = false;
    std::size_t f = cap;
    while (next_row <= n) {
      const uint32_t old_v = ro[next_row];
      if (old_v >= prev_hi) {  // untouched slot (or cap), still correct
        ++next_row;
        continue;
      }
      if (!have_f) {
        f = pma_.first_live_slot_at_or_after(prev_hi);
        have_f = true;
      }
      ro[next_row++] = static_cast<uint32_t>(f);
    }
  }

  // ---- repair the degree-sorted orders ----------------------------------
  // Any endpoint of a net add/delete may have moved; merge them back into
  // the still-sorted survivor stream. A vertex whose changes cancelled
  // (same in-degree as before) re-merges to its old position, so no
  // net-zero filtering is needed.
  // in_aff outlives the block: the coefficient-cache patch at the end of
  // this function recomputes around the same vertex set.
  std::vector<uint32_t> in_aff;
  {
    std::vector<uint32_t> out_aff;
    in_aff.reserve(net_add.size() + net_del.size());
    out_aff.reserve(net_add.size() + net_del.size());
    for (uint64_t k : net_add) {
      in_aff.push_back(edge_key_dst(k));
      out_aff.push_back(edge_key_src(k));
    }
    for (uint64_t k : net_del) {
      in_aff.push_back(edge_key_dst(k));
      out_aff.push_back(edge_key_src(k));
    }
    for (auto* aff : {&in_aff, &out_aff}) {
      std::sort(aff->begin(), aff->end());
      aff->erase(std::unique(aff->begin(), aff->end()), aff->end());
    }
    if (!in_aff.empty()) repair_order(fwd_order_, in_deg_.data(), in_aff);
    if (!out_aff.empty()) repair_order(bwd_order_, out_deg_.data(), out_aff);
  }

  // ---- splice the reverse CSR -------------------------------------------
  {
    // (dst, src)-keyed views of the net delta, sorted by destination; net
    // adds carry their new label so the splice never searches for one.
    std::vector<std::pair<uint64_t, uint32_t>> radd(net_add.size());
    std::vector<uint64_t> rdel(net_del.size());
    for (std::size_t i = 0; i < net_add.size(); ++i)
      radd[i] = {make_edge_key(edge_key_dst(net_add[i]),
                               edge_key_src(net_add[i])),
                 net_add_eid[i]};
    for (std::size_t i = 0; i < net_del.size(); ++i)
      rdel[i] =
          make_edge_key(edge_key_dst(net_del[i]), edge_key_src(net_del[i]));
    std::sort(radd.begin(), radd.end());
    std::sort(rdel.begin(), rdel.end());
    const std::size_t na = radd.size(), nd = rdel.size();

    // Destinations whose lists change structurally. Between two of them a
    // whole block of lists survives verbatim, just offset-shifted.
    std::vector<uint32_t> changed;
    changed.reserve(na + nd);
    for (const auto& [k, e] : radd) changed.push_back(edge_key_src(k));
    for (uint64_t k : rdel) changed.push_back(edge_key_src(k));
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

    // New reverse row offsets = old + running per-destination degree delta.
    r_row_offset_scratch_.resize(static_cast<std::size_t>(n) + 1);
    {
      const uint32_t* oro = r_row_offset_.data();
      uint32_t* nro = r_row_offset_scratch_.data();
      int64_t shift = 0;
      std::size_t ai = 0, di = 0;
      for (uint32_t v = 0; v <= n; ++v) {
        nro[v] = static_cast<uint32_t>(static_cast<int64_t>(oro[v]) + shift);
        if (v < n) {
          while (ai < na && edge_key_src(radd[ai].first) == v) {
            ++shift;
            ++ai;
          }
          while (di < nd && edge_key_src(rdel[di]) == v) {
            --shift;
            ++di;
          }
        }
      }
      STG_CHECK(nro[n] == new_m, "spliced reverse offsets end at ", nro[n],
                ", expected ", new_m);
    }

    // Block copy + per-changed-destination splice. Block b is the run of
    // untouched destinations before the b-th changed one: its lists keep
    // their sources (one memcpy) and only relocate labels through the
    // remap table. Blocks are position-addressed and independent, so the
    // parallel fill is deterministic for any lane count.
    r_col_scratch_.resize(new_m);
    r_eids_scratch_.resize(new_m);
    const uint32_t* oro = r_row_offset_.data();
    const uint32_t* nro = r_row_offset_scratch_.data();
    const uint32_t* oc = r_col_.data();
    const uint32_t* oe = r_eids_.data();
    uint32_t* nc = r_col_scratch_.data();
    uint32_t* ne = r_eids_scratch_.data();
    const uint32_t* rm = eid_remap_.data();
    const std::size_t B = changed.size();
    device::parallel_for_ranges(
        B + 1,
        [&](std::size_t blo, std::size_t bhi) {
          std::size_t ai = 0, di = 0;  // seeded per changed destination
          for (std::size_t b = blo; b < bhi; ++b) {
            const uint32_t dbegin = b == 0 ? 0u : changed[b - 1] + 1;
            const uint32_t dend = b < B ? changed[b] : n;
            const uint32_t o0 = oro[dbegin], o1 = oro[dend];
            const uint32_t n0 = nro[dbegin];
            STG_CHECK(nro[dend] - n0 == o1 - o0, "untouched block [", dbegin,
                      ",", dend, ") changed width");
            if (o1 > o0) {
              std::memcpy(nc + n0, oc + o0,
                          (o1 - o0) * sizeof(uint32_t));
              for (uint32_t j = o0; j < o1; ++j)
                ne[n0 + (j - o0)] = rm[oe[j]];
            }
            if (b == B) continue;
            const uint32_t v = dend;
            const uint64_t vkey = static_cast<uint64_t>(v) << 32;
            ai = static_cast<std::size_t>(
                std::lower_bound(radd.begin(), radd.end(),
                                 std::pair<uint64_t, uint32_t>{vkey, 0u}) -
                radd.begin());
            di = static_cast<std::size_t>(
                std::lower_bound(rdel.begin(), rdel.end(), vkey) -
                rdel.begin());
            std::size_t w = nro[v];
            for (uint32_t j = oro[v]; j < oro[v + 1]; ++j) {
              const uint32_t s = oc[j];
              if (di < nd && edge_key_src(rdel[di]) == v &&
                  edge_key_dst(rdel[di]) == s) {
                ++di;  // edge s -> v net-deleted
                continue;
              }
              while (ai < na && edge_key_src(radd[ai].first) == v &&
                     edge_key_dst(radd[ai].first) < s) {
                nc[w] = edge_key_dst(radd[ai].first);
                ne[w] = radd[ai].second;
                ++w;
                ++ai;
              }
              nc[w] = s;
              ne[w] = rm[oe[j]];
              ++w;
            }
            while (ai < na && edge_key_src(radd[ai].first) == v) {
              nc[w] = edge_key_dst(radd[ai].first);
              ne[w] = radd[ai].second;
              ++w;
              ++ai;
            }
            STG_CHECK(w == nro[v + 1], "splice for destination ", v,
                      " wrote ", w - nro[v], " entries, expected ",
                      nro[v + 1] - nro[v]);
          }
        },
        /*grain=*/16);
    std::swap(r_row_offset_, r_row_offset_scratch_);
    std::swap(r_col_, r_col_scratch_);
    std::swap(r_eids_, r_eids_scratch_);
  }

  // ---- patch the edge-coefficient cache ---------------------------------
  // Survivor labels keep their value (the factor depends only on endpoint
  // in-degrees, which the gather relocates through the remap table); every
  // edge touching a vertex whose in-degree may have changed is recomputed
  // on both sides. in_aff is exactly that vertex set: in-degrees change
  // only through net-added/-deleted edges' destinations. The recomputation
  // matches full_rebuild_views bit for bit — same degrees, same expression.
  if (!coef_cache_enabled_) {
    gcn_coef_.resize(0);
  } else if (gcn_coef_.size() != old_m) {
    rebuild_coef_cache();  // cache was cleared or stale; start over
  } else {
    gcn_coef_scratch_.resize(new_m);
    const uint32_t* rm = eid_remap_.data();
    const float* oldc = gcn_coef_.data();
    float* newc = gcn_coef_scratch_.data();
    device::parallel_for_ranges(old_m, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t e = lo; e < hi; ++e)
        if (rm[e] != kSpace) newc[rm[e]] = oldc[e];
    });
    std::swap(gcn_coef_, gcn_coef_scratch_);
    float* gc = gcn_coef_.data();
    const uint32_t* ind = in_deg_.data();
    // Net adds first: their destination's degree change may have cancelled
    // out, in which case the incident sweep below would not visit them.
    for (std::size_t i = 0; i < net_add.size(); ++i)
      gc[net_add_eid[i]] = gcn_norm_coef(ind[edge_key_src(net_add[i])],
                                         ind[edge_key_dst(net_add[i])]);
    // Then every edge incident to a possibly-changed in-degree, as
    // destination (new reverse CSR rows) and as source (gapped forward
    // rows).
    const uint32_t* rro = r_row_offset_.data();
    const uint32_t* rc = r_col_.data();
    const uint32_t* re = r_eids_.data();
    const uint32_t* ro = row_offset_.data();
    const uint32_t* pc = col_.data();
    const uint32_t* pe = eids_.data();
    for (uint32_t v : in_aff) {
      const uint32_t dv = ind[v];
      for (uint32_t j = rro[v]; j < rro[v + 1]; ++j)
        gc[re[j]] = gcn_norm_coef(ind[rc[j]], dv);
      for (uint32_t j = ro[v]; j < ro[v + 1]; ++j)
        if (pc[j] != kSpace) gc[pe[j]] = gcn_norm_coef(dv, ind[pc[j]]);
    }
  }
  return true;
}

SnapshotView GpmaGraph::get_graph(uint32_t t) {
  if (!pipeline_enabled_) {
    // Serial schedule: replay + refresh inline, views point at the live
    // arrays (zero copies — exactly the pre-pipeline behavior).
    PhaseScope scope(update_timer_);
    {
      PhaseScope pos(position_timer_);
      position(t);
    }
    if (!views_fresh_) {
      PhaseScope view(view_timer_);
      refresh_views();
    }
    return make_view();
  }

  // Pipelined schedule. First reclaim ownership of the live state: wait
  // out any in-flight prefetch (the stall is the un-overlapped remainder
  // of the update phase) and surface a worker error here, where the
  // trainer's failure handling expects graph errors to appear.
  bool worker_delivered = false;
  if (worker_.joinable()) {
    MutexLock lock(pmu_);
    if (pf_state_ == PfState::kPending) {
      PhaseScope stall(stall_timer_);
      while (pf_state_ == PfState::kPending) pcv_.wait(lock);
    }
    if (pf_state_ == PfState::kDone) {
      pf_state_ = PfState::kIdle;
      worker_delivered = true;
    }
    if (pf_error_) {
      std::exception_ptr e = pf_error_;
      pf_error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

  // A published snapshot of timestamp t may serve the request only while
  // the live PMA has not been repositioned since it was published: the
  // snapshot's *edge content* at t is immutable, but the serving contract
  // also promises byte-agreement with the live slot layout, which is
  // path-dependent. An epoch match implies the live PMA is still at t.
  for (int i : {active_pub_, 1 - active_pub_}) {
    if (pub_[i].valid && pub_[i].timestamp == t &&
        pub_[i].live_epoch == live_epoch_) {
      if (worker_delivered && i != active_pub_) ++prefetch_hits_;
      active_pub_ = i;
      return make_view(pub_[active_pub_]);
    }
  }

  // Miss: do the work inline into the standby buffer (the hint was wrong,
  // absent, or this is the first request).
  ++prefetch_misses_;
  prepare(t);
  active_pub_ = 1 - active_pub_;
  return make_view(pub_[active_pub_]);
}

void GpmaGraph::prepare(uint32_t target) {
  PhaseScope scope(update_timer_);
  {
    PhaseScope pos(position_timer_);
    position(target);
  }
  if (!views_fresh_) {
    PhaseScope view(view_timer_);
    refresh_views();
  }
  {
    PhaseScope view(view_timer_);
    publish(pub_[1 - active_pub_]);
  }
}

void GpmaGraph::publish(PublishedView& pub) {
  pub.valid = false;
  copy_buf(pub.col, col_);
  copy_buf(pub.eids, eids_);
  copy_buf(pub.row_offset, row_offset_);
  copy_buf(pub.in_deg, in_deg_);
  copy_buf(pub.out_deg, out_deg_);
  copy_buf(pub.fwd_order, fwd_order_);
  copy_buf(pub.bwd_order, bwd_order_);
  copy_buf(pub.r_row_offset, r_row_offset_);
  copy_buf(pub.r_col, r_col_);
  copy_buf(pub.r_eids, r_eids_);
  copy_buf(pub.gcn_coef, gcn_coef_);
  pub.num_edges = static_cast<uint32_t>(pma_.size());
  pub.timestamp = curr_time_;
  pub.live_epoch = live_epoch_;
  pub.valid = true;
}

void GpmaGraph::prefetch(uint32_t t) {
  if (!pipeline_enabled_ || t >= num_timestamps()) return;
  ensure_worker();
  MutexLock lock(pmu_);
  // Staleness bound 1: at most one prefetch in flight, and an unconsumed
  // result keeps its buffer until a get_* claims it.
  if (pf_state_ != PfState::kIdle || pf_error_) return;
  // Already have a servable t (current-epoch snapshot in either buffer)?
  // Nothing to do. Safe to read here: the worker is provably idle while
  // we hold the lock at kIdle.
  if ((pub_[0].valid && pub_[0].timestamp == t &&
       pub_[0].live_epoch == live_epoch_) ||
      (pub_[1].valid && pub_[1].timestamp == t &&
       pub_[1].live_epoch == live_epoch_))
    return;
  pf_target_ = t;
  pf_state_ = PfState::kPending;
  pcv_.notify_all();
}

void GpmaGraph::sync() const {
  if (!worker_.joinable()) return;
  MutexLock lock(pmu_);
  while (pf_state_ == PfState::kPending) pcv_.wait(lock);
  // Leave a completed result published (a later get_* may still hit it)
  // and any error stored for the next get_* to rethrow.
  if (pf_state_ == PfState::kDone) pf_state_ = PfState::kIdle;
}

void GpmaGraph::ensure_worker() {
  if (worker_.joinable()) return;
  worker_ = std::thread([this] { worker_loop(); });
}

void GpmaGraph::worker_loop() {
  // The worker is an auxiliary thread running concurrently with compute on
  // the main thread: it must never launch on the (single-launcher)
  // ThreadPool. ScopedInline makes every parallel primitive it reaches run
  // serially inline — bit-identical views by the any-lane-count contract.
  ThreadPool::ScopedInline inline_guard;
  for (;;) {
    uint32_t target = 0;
    {
      MutexLock lock(pmu_);
      while (pf_state_ != PfState::kPending && !pf_stop_) pcv_.wait(lock);
      if (pf_stop_) return;
      target = pf_target_;
    }
    std::exception_ptr err;
    try {
      prepare(target);
    } catch (...) {
      err = std::current_exception();
    }
    {
      MutexLock lock(pmu_);
      pf_error_ = err;
      pf_state_ = PfState::kDone;
      pcv_.notify_all();
    }
  }
}

namespace {

/// Pointer-pack a SnapshotView from one source of snapshot arrays; shared
/// by the live (serial) and published (pipelined) assembly so the two
/// schedules hand kernels structurally identical views.
SnapshotView assemble_view(
    uint32_t num_nodes, uint32_t num_edges, const DeviceBuffer<uint32_t>& ro,
    const DeviceBuffer<uint32_t>& col, const DeviceBuffer<uint32_t>& eids,
    const DeviceBuffer<uint32_t>& rro, const DeviceBuffer<uint32_t>& rcol,
    const DeviceBuffer<uint32_t>& reids, const DeviceBuffer<uint32_t>& fwd,
    const DeviceBuffer<uint32_t>& bwd, const DeviceBuffer<uint32_t>& ind,
    const DeviceBuffer<uint32_t>& outd, const DeviceBuffer<float>& coef) {
  SnapshotView v;
  v.num_nodes = num_nodes;
  v.num_edges = num_edges;
  // Forward pass: compacted reverse CSR (in-neighbors).
  v.in_view.num_nodes = num_nodes;
  v.in_view.num_edges = num_edges;
  v.in_view.row_offset = rro.data();
  v.in_view.col_indices = rcol.data();
  v.in_view.eids = reids.data();
  v.in_view.node_ids = fwd.data();
  v.in_view.has_gaps = false;
  // Backward pass: gapped PMA arrays consumed in place.
  v.out_view.num_nodes = num_nodes;
  v.out_view.num_edges = num_edges;
  v.out_view.row_offset = ro.data();
  v.out_view.col_indices = col.data();
  v.out_view.eids = eids.data();
  v.out_view.node_ids = bwd.data();
  v.out_view.has_gaps = true;
  v.in_degrees = ind.data();
  v.out_degrees = outd.data();
  v.gcn_coef = coef.empty() ? nullptr : coef.data();
  return v;
}

}  // namespace

SnapshotView GpmaGraph::make_view() const {
  return assemble_view(num_nodes_, static_cast<uint32_t>(pma_.size()),
                       row_offset_, col_, eids_, r_row_offset_, r_col_,
                       r_eids_, fwd_order_, bwd_order_, in_deg_, out_deg_,
                       gcn_coef_);
}

SnapshotView GpmaGraph::make_view(const PublishedView& pub) const {
  return assemble_view(num_nodes_, pub.num_edges, pub.row_offset, pub.col,
                       pub.eids, pub.r_row_offset, pub.r_col, pub.r_eids,
                       pub.fwd_order, pub.bwd_order, pub.in_deg, pub.out_deg,
                       pub.gcn_coef);
}

SnapshotView GpmaGraph::get_backward_graph(uint32_t t) { return get_graph(t); }

void GpmaGraph::reset_update_stats() {
  sync();
  update_timer_.reset();
  position_timer_.reset();
  view_timer_.reset();
  stall_timer_.reset();
  incremental_view_updates_ = 0;
  full_view_rebuilds_ = 0;
  prefetch_hits_ = 0;
  prefetch_misses_ = 0;
}

std::size_t GpmaGraph::device_bytes() const {
  sync();
  std::size_t total = pma_.device_bytes() + col_.bytes() + eids_.bytes() +
                      row_offset_.bytes() + in_deg_.bytes() + out_deg_.bytes() +
                      fwd_order_.bytes() + bwd_order_.bytes() +
                      r_row_offset_.bytes() + r_col_.bytes() + r_eids_.bytes() +
                      gcn_coef_.bytes() + gcn_coef_scratch_.bytes() +
                      r_row_offset_scratch_.bytes() + r_col_scratch_.bytes() +
                      r_eids_scratch_.bytes() + order_scratch_.bytes() +
                      pub_[0].device_bytes() + pub_[1].device_bytes();
  for (const DeviceDelta& d : deltas_)
    total += d.additions.bytes() + d.deletions.bytes();
  if (cache_pma_) {
    total += cache_pma_->device_bytes() +
             (cache_in_deg_.size() + cache_out_deg_.size()) * sizeof(uint32_t);
  }
  return total;
}

}  // namespace stgraph
