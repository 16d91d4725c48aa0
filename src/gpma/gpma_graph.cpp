#include "gpma/gpma_graph.hpp"

#include <algorithm>
#include <string>
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
  // per-destination list comes out in ascending source order: R ranges
  // own contiguous source blocks, scan them left to right, and start from
  // a cursor seeded with the scatter extent of all lower ranges. The
  // output is therefore identical for any lane count — unlike an atomic
  // fetch_sub cursor, whose list order depends on thread interleaving.
  // R = 1 (the sequential scatter) seeds the cursors with the row starts.
  const unsigned lanes = device::lane_count();
  const bool matrix_too_big =
      static_cast<std::size_t>(lanes) * num_nodes >
      4 * static_cast<std::size_t>(num_edges);
  const uint32_t R =
      num_edges < (1u << 14) || matrix_too_big ? 1u : lanes;
  const uint32_t chunk = (num_nodes + R - 1) / R;
  // cursors[r * num_nodes + d]: next slot of d's list for range r.
  static thread_local std::vector<uint32_t> cursors;
  if (R == 1) {
    cursors.assign(r_row_offset.data(), r_row_offset.data() + num_nodes);
  } else {
    // Count the edges into d from each range's source block, then turn the
    // counts into cursors: d's row start + edges into d from lower ranges
    // (a transposed exclusive scan).
    cursors.assign(static_cast<std::size_t>(R) * num_nodes, 0);
    uint32_t* cnt_base = cursors.data();
    device::parallel_for_ranges(
        R,
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
    const uint32_t* starts = r_row_offset.data();
    device::parallel_for_ranges(num_nodes, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t d = lo; d < hi; ++d) {
        uint32_t run = starts[d];
        for (uint32_t r = 0; r < R; ++r) {
          const uint32_t c = cnt_base[r * num_nodes + d];
          cnt_base[r * num_nodes + d] = run;
          run += c;
        }
      }
    });
  }
  uint32_t* cursor_base = cursors.data();
  device::parallel_for_ranges(
      R,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r) {
          uint32_t* cursor = cursor_base + r * num_nodes;
          const uint32_t vb = static_cast<uint32_t>(r) * chunk;
          const uint32_t ve = std::min<uint32_t>(num_nodes, vb + chunk);
          for (uint32_t v = vb; v < ve; ++v)
            for (uint32_t j = ro[v]; j < ro[v + 1]; ++j) {
              const uint32_t dst = pc[j];
              if (dst == kSpace) continue;  // line 10: skip gap slots
              const uint32_t loc = cursor[dst]++;
              rc[loc] = v;
              re[loc] = pe[j];
            }
        }
      },
      /*grain=*/1);
}

GpmaGraph::GpmaGraph(const DtdgEvents& events)
    : num_nodes_(events.num_nodes) {
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
  // Per-key degree maintenance (the STG_CHECK above guarantees every
  // listed key really hit the PMA).
  for (uint64_t k : to_erase) {
    --out_deg_[edge_key_src(k)];
    --in_deg_[edge_key_dst(k)];
  }
  for (uint64_t k : to_insert) {
    ++out_deg_[edge_key_src(k)];
    ++in_deg_[edge_key_dst(k)];
  }
  ++delta_replays_;
}

void GpmaGraph::save_checkpoint(Checkpoint& cp) {
  const uint32_t n = num_nodes_;
  const std::size_t m = pma_.size();
  cp.row_offset.resize(static_cast<std::size_t>(n) + 1);
  cp.row_offset[n] =
      device::exclusive_scan(out_deg_.data(), cp.row_offset.data(), n);
  cp.dst.resize(m);
  const uint64_t* slots = pma_.slots().data();
  uint32_t* dst = cp.dst.data();
  std::size_t j = 0;
  for (std::size_t i = 0; i < pma_.capacity(); ++i)
    if (slots[i] != Pma::kEmptyKey) dst[j++] = edge_key_dst(slots[i]);
  STG_CHECK(j == m && cp.row_offset[n] == m, "checkpoint at t=", curr_time_,
            " saw ", j, " live slots and ", cp.row_offset[n],
            " out-degrees for ", m, " edges");
  cp.timestamp = curr_time_;
  cp.valid = true;
}

void GpmaGraph::restore_checkpoint(const Checkpoint& cp) {
  const uint32_t n = num_nodes_;
  const uint32_t* ro = cp.row_offset.data();
  const uint32_t* dst = cp.dst.data();
  pma_.load_csr(n, ro, dst);
  uint32_t* out = out_deg_.data();
  uint32_t* in = in_deg_.data();
  for (uint32_t v = 0; v < n; ++v) out[v] = ro[v + 1] - ro[v];
  std::fill_n(in, n, 0u);
  for (uint32_t j = 0; j < ro[n]; ++j) ++in[dst[j]];
  curr_time_ = cp.timestamp;
}

void GpmaGraph::set_cache_enabled(bool enabled) {
  sync();  // the worker saves and restores checkpoints while positioning
  cache_enabled_ = enabled;
  if (!enabled) {
    turn_ = Checkpoint{};
    origin_ = Checkpoint{};
  }
}

void GpmaGraph::position(uint32_t target) {
  STG_CHECK(target < num_timestamps(), "timestamp ", target, " out of range ",
            num_timestamps());
  if (target == curr_time_) return;
  ++live_epoch_;  // any movement ends published snapshots' byte-equality
  const bool forward = target > curr_time_;
  if (cache_enabled_) {
    // A forward->backward turn: the live PMA is at the end of the sequence
    // whose backward pass starts now, which is where the next sequence's
    // forward pass resumes (Algorithm 2 lines 1-5 / line 10).
    if (!forward && moving_forward_) save_checkpoint(turn_);
    // Start from whichever state is fewest replays away, counting a
    // restore as one (it costs about as much as replaying one delta); ties
    // go to the live PMA.
    auto distance = [target](uint32_t t) {
      return target > t ? target - t : t - target;
    };
    const Checkpoint* start = nullptr;
    uint32_t best = distance(curr_time_);
    for (const Checkpoint* cp : {&turn_, &origin_}) {
      if (cp->valid && 1 + distance(cp->timestamp) < best) {
        start = cp;
        best = 1 + distance(cp->timestamp);
      }
    }
    if (start != nullptr) restore_checkpoint(*start);
  }
  moving_forward_ = forward;
  while (curr_time_ < target) {
    apply_delta(curr_time_, /*forward=*/true);
    ++curr_time_;
  }
  while (curr_time_ > target) {
    apply_delta(curr_time_ - 1, /*forward=*/false);
    --curr_time_;
  }
  // Taken lazily: only a reader that rolls back to the start holds one.
  if (cache_enabled_ && curr_time_ == 0 && !origin_.valid)
    save_checkpoint(origin_);
}

void GpmaGraph::refresh_views(PublishedView& pub) {
  pub.valid = false;
  full_rebuild_views(pub);
  ++full_view_rebuilds_;
  pub.num_edges = static_cast<uint32_t>(pma_.size());
  pub.timestamp = curr_time_;
  pub.live_epoch = live_epoch_;
  pub.valid = true;

  // STGRAPH_VALIDATE: audit the freshly rebuilt views against the PMA
  // before any kernel consumes them, so a bad rebuild fails here rather
  // than as a wrong gradient downstream.
  if (verify::validation_enabled()) {
    const SnapshotView v = make_view(pub);
    verify::Report r = verify::check_snapshot_view(v);
    r.merge(verify::check_pma(pma_));
    r.merge(verify::check_pma_view_agreement(pma_, v));
    verify::require_ok(r, "GpmaGraph::refresh_views(t=" +
                              std::to_string(curr_time_) + ")");
  }
}

void GpmaGraph::full_rebuild_views(PublishedView& pub) {
  const std::size_t cap = pma_.capacity();
  const uint32_t m = static_cast<uint32_t>(pma_.size());
  const uint32_t n = num_nodes_;

  // Edge relabelling in slot order (Algorithm 2 line 8) + the dst/eid slot
  // arrays + row offsets over slot positions. Buffers are resized in
  // place; their heap capacity persists across refreshes.
  pub.col.resize(cap);
  pub.eids.resize(cap);
  pub.row_offset.resize(static_cast<std::size_t>(n) + 1);
  const uint64_t* slots = pma_.slots().data();
  uint32_t* pc = pub.col.data();
  uint32_t* pe = pub.eids.data();
  uint32_t* ro = pub.row_offset.data();

  // R ranges: per-range live counts, a prefix sum into per-range edge-id
  // bases, then an independent fill per range. The row-offset boundary
  // writes are disjoint across ranges once each range knows the last live
  // source before it (per-range carry chain). R = 1 is the sequential
  // pass: base 0, carry -1, no count pass.
  const std::size_t R = cap < (1u << 14) ? 1 : device::lane_count();
  const std::size_t chunk = (cap + R - 1) / R;
  std::vector<uint32_t> base(R, 0);
  std::vector<int64_t> carry(R, -1);  // last live src strictly before range r
  if (R > 1) {
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
    for (std::size_t r = 1; r < R; ++r) {
      base[r] = base[r - 1] + live[r - 1];
      carry[r] = last_src[r - 1] >= 0 ? last_src[r - 1] : carry[r - 1];
    }
  }
  // Bases and carries pass through empty ranges, so the last range's final
  // eid is the edge count and its final prev the last live source.
  uint32_t end_eid = 0;
  int64_t end_src = -1;
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
          if (r + 1 == R) {
            end_eid = eid;
            end_src = prev;
          }
        }
      },
      /*grain=*/1);
  STG_CHECK(end_eid == m, "relabel pass saw ", end_eid, " edges, expected ",
            m);
  for (int64_t v = end_src + 1; v <= static_cast<int64_t>(n); ++v)
    ro[v] = static_cast<uint32_t>(cap);

  // Degrees at this position (the live ones keep changing under replay)
  // and the degree-sorted processing orders (paper Figure 3 auxiliary
  // node_ids).
  pub.in_deg.resize(n);
  pub.out_deg.resize(n);
  pub.fwd_order.resize(n);
  pub.bwd_order.resize(n);
  std::copy_n(in_deg_.data(), n, pub.in_deg.data());
  std::copy_n(out_deg_.data(), n, pub.out_deg.data());
  device::degree_order(pub.in_deg.data(), n, pub.fwd_order.data());
  device::degree_order(pub.out_deg.data(), n, pub.bwd_order.data());

  // Algorithm 3: compacted reverse CSR for the forward pass.
  reverse_gpma(n, pub.row_offset, pub.col, pub.eids, pub.in_deg, m,
               pub.r_row_offset, pub.r_col, pub.r_eids);

  // Per-snapshot GCN-norm cache, consumed by the kernel engine.
  rebuild_coef_cache(pub);
}

void GpmaGraph::rebuild_coef_cache(PublishedView& pub) {
  const uint32_t m = static_cast<uint32_t>(pma_.size());
  pub.gcn_coef.resize(m);
  const uint32_t* rro = pub.r_row_offset.data();
  const uint32_t* rc = pub.r_col.data();
  const uint32_t* re = pub.r_eids.data();
  const uint32_t* ind = pub.in_deg.data();
  float* gc = pub.gcn_coef.data();
  device::parallel_for_ranges(num_nodes_, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t v = lo; v < hi; ++v) {
      const uint32_t dv = ind[v];
      for (uint32_t j = rro[v]; j < rro[v + 1]; ++j)
        gc[re[j]] = gcn_norm_coef(ind[rc[j]], dv);
    }
  });
}

bool GpmaGraph::servable(const PublishedView& pub, uint32_t t) const {
  return pub.valid && pub.timestamp == t && pub.live_epoch == live_epoch_;
}

SnapshotView GpmaGraph::get_graph(uint32_t t) {
  // First reclaim ownership of the live state: wait out any in-flight
  // prefetch (the stall is the un-overlapped remainder of the update phase)
  // and surface a worker error here, where the trainer's failure handling
  // expects graph errors to appear.
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

  // A built snapshot of timestamp t may serve the request only while the
  // live PMA has not been repositioned since it was built: the snapshot's
  // *edge content* at t is immutable, but the serving contract also
  // promises byte-agreement with the live slot layout, which is
  // path-dependent. An epoch match implies the live PMA is still at t.
  for (int i : {active_pub_, 1 - active_pub_}) {
    if (servable(pub_[i], t)) {
      if (worker_delivered && i != active_pub_) ++prefetch_hits_;
      active_pub_ = i;
      return make_view(pub_[active_pub_]);
    }
  }

  // Miss: do the work inline into the standby buffer (the hint was wrong,
  // absent, or this is the first request). This is the serial schedule.
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
  PhaseScope view(view_timer_);
  refresh_views(pub_[1 - active_pub_]);
}

void GpmaGraph::prefetch(uint32_t t) {
  if (t >= num_timestamps()) return;
  ensure_worker();
  MutexLock lock(pmu_);
  // Staleness bound 1: at most one prefetch in flight, and an unconsumed
  // result keeps its buffer until a get_* claims it.
  if (pf_state_ != PfState::kIdle || pf_error_) return;
  // Already have a servable t (current-epoch snapshot in either buffer)?
  // Nothing to do. Safe to read here: the worker is provably idle while
  // we hold the lock at kIdle.
  if (servable(pub_[0], t) || servable(pub_[1], t)) return;
  pf_target_ = t;
  pf_state_ = PfState::kPending;
  pcv_.notify_all();
}

void GpmaGraph::sync() const {
  if (!worker_.joinable()) return;
  MutexLock lock(pmu_);
  while (pf_state_ == PfState::kPending) pcv_.wait(lock);
  // Leave a completed result servable (a later get_* may still hit it)
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

SnapshotView GpmaGraph::make_view(const PublishedView& pub) const {
  SnapshotView v;
  v.num_nodes = num_nodes_;
  v.num_edges = pub.num_edges;
  // Forward pass: compacted reverse CSR (in-neighbors).
  v.in_view.num_nodes = num_nodes_;
  v.in_view.num_edges = pub.num_edges;
  v.in_view.row_offset = pub.r_row_offset.data();
  v.in_view.col_indices = pub.r_col.data();
  v.in_view.eids = pub.r_eids.data();
  v.in_view.node_ids = pub.fwd_order.data();
  v.in_view.has_gaps = false;
  // Backward pass: gapped PMA arrays consumed in place.
  v.out_view.num_nodes = num_nodes_;
  v.out_view.num_edges = pub.num_edges;
  v.out_view.row_offset = pub.row_offset.data();
  v.out_view.col_indices = pub.col.data();
  v.out_view.eids = pub.eids.data();
  v.out_view.node_ids = pub.bwd_order.data();
  v.out_view.has_gaps = true;
  v.in_degrees = pub.in_deg.data();
  v.out_degrees = pub.out_deg.data();
  v.gcn_coef = pub.gcn_coef.empty() ? nullptr : pub.gcn_coef.data();
  return v;
}

SnapshotView GpmaGraph::get_backward_graph(uint32_t t) { return get_graph(t); }

void GpmaGraph::reset_update_stats() {
  sync();
  update_timer_.reset();
  position_timer_.reset();
  view_timer_.reset();
  stall_timer_.reset();
  full_view_rebuilds_ = 0;
  prefetch_hits_ = 0;
  prefetch_misses_ = 0;
}

std::size_t GpmaGraph::device_bytes() const {
  sync();
  std::size_t total = pma_.device_bytes() + in_deg_.bytes() +
                      out_deg_.bytes() + pub_[0].device_bytes() +
                      pub_[1].device_bytes();
  for (const DeviceDelta& d : deltas_)
    total += d.additions.bytes() + d.deletions.bytes();
  return total + turn_.device_bytes() + origin_.device_bytes();
}

}  // namespace stgraph
