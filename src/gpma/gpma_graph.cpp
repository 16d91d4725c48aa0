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
      gcn_coef_(0, MemCategory::kGraph) {
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
  full_rebuild_views();
  ++full_view_rebuilds_;
  views_fresh_ = true;

  // STGRAPH_VALIDATE: audit the freshly rebuilt views against the PMA
  // before any kernel consumes them, so a bad rebuild fails here rather
  // than as a wrong gradient downstream.
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
                      gcn_coef_.bytes() + pub_[0].device_bytes() +
                      pub_[1].device_bytes();
  for (const DeviceDelta& d : deltas_)
    total += d.additions.bytes() + d.deletions.bytes();
  if (cache_pma_) {
    total += cache_pma_->device_bytes() +
             (cache_in_deg_.size() + cache_out_deg_.size()) * sizeof(uint32_t);
  }
  return total;
}

}  // namespace stgraph
