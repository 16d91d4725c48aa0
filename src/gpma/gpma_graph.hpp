// GPMAGraph (paper §V-D): a DTDG stored as a base graph inside a Packed
// Memory Array plus per-timestamp edge deltas. Snapshots are constructed
// on demand:
//
//   * Algorithm 2 (Get-Graph): roll the PMA to the requested timestamp by
//     replaying (or inverting) deltas, then relabel edges 0..m-1 in slot
//     order so forward and backward views share labels. Two compact
//     checkpoints (the edge set at one timestamp as row offsets + dsts)
//     stand in for the paper's snapshot cache: `turn` is saved at every
//     forward->backward turn, so the next sequence's forward pass resumes
//     from the previous sequence's end; `origin` is taken the first time
//     a backward roll lands on t = 0, so the next epoch starts without
//     inverting every delta. Positioning starts from whichever of the live
//     PMA and the two checkpoints is fewest replays away, a restore
//     counting as one (ties go to the live PMA), and replays forward or
//     backward from there. A restore bulk-loads the PMA, so its slot
//     layout may differ from the one the replay path would have left; the
//     views do not depend on it (labels are key-order ranks, reverse lists
//     ascend by source, the gapped out view is walked in key order). A
//     forward-only reader (serving) never turns and never holds a
//     checkpoint.
//   * Algorithm 3 (Reverse-GPMA): build the compacted reverse CSR
//     (in-neighbor view for the forward pass) straight from the gapped PMA
//     arrays with a per-destination prefix-sum + deterministic scatter.
//
// Every refresh rebuilds the views from the PMA slot array in one
// O(capacity) pass, parallelized with a count/prefix/scatter over slot
// ranges: relabel + row offsets, degree orders, Algorithm-3 reverse CSR and
// the GCN-norm coefficient cache. The views have one canonical layout
// (labels in slot order, reverse lists in ascending source order, orders by
// degree desc then id asc), bit-identical at any lane count.
//
// The backward pass consumes the gapped PMA arrays directly (kernels skip
// SPACE slots), so no out-CSR is ever materialized.
//
// Views live in two PublishedView buffers and nowhere else. Every refresh
// builds straight into the standby buffer (including a copy of the
// degrees, the only live state replay keeps mutating) and get_graph flips
// it to active, so the view a get_* call returns keeps its bytes through
// the following call. Bounded-staleness pipeline: prefetch(t), called by
// the trainer/executor, hands t to a background worker that rolls the PMA
// there and builds t's views into the standby buffer while kernels read
// the active one. The staleness bound is 1 — at most one prefetch in
// flight, into the one standby buffer — and the worker runs every
// pool-using builder under ThreadPool::ScopedInline (serially), both
// because run_on_lanes_raw is a single-launcher protocol and because views
// are bit-identical at any lane count, so overlap changes nothing
// downstream.
// Without prefetch() calls, get_graph builds inline: that is the serial
// schedule.
//
// Edge aggregation over these views has one schedule: the kernel engine
// walks the degree orders (fwd/bwd node_ids) with strided lanes, each row
// reduced by one lane in CSR order, so outputs are bit-identical at any
// lane count.
#pragma once

#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "gpma/pma.hpp"
#include "graph/dtdg.hpp"
#include "graph/stgraph_base.hpp"
#include "runtime/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace stgraph {

class GpmaGraph final : public STGraphBase {
 public:
  explicit GpmaGraph(const DtdgEvents& events);
  ~GpmaGraph() override;

  uint32_t num_nodes() const override { return num_nodes_; }
  uint32_t num_edges_at(uint32_t t) const override;
  uint32_t num_timestamps() const override {
    return static_cast<uint32_t>(deltas_.size()) + 1;
  }
  bool is_dynamic() const override { return true; }
  std::string format_name() const override { return "GPMAGraph"; }

  SnapshotView get_graph(uint32_t t) override;
  SnapshotView get_backward_graph(uint32_t t) override;
  /// Hand timestamp t to the pipeline worker: it rolls the live PMA there
  /// and builds t's views into the standby buffer while the caller keeps
  /// computing on the active one. No-op when a prefetch is already in
  /// flight (staleness bound 1).
  void prefetch(uint32_t t) override;

  std::size_t device_bytes() const override;

  /// Streaming ingestion: record one more per-timestamp delta at the head
  /// of the timeline. O(|delta|) — the PMA itself is untouched until a
  /// get_graph() positions past the new timestamp, which is exactly the
  /// paper's lazy Algorithm-2 replay applied to serving. Strong exception
  /// guarantee (bounds are validated before anything is stored).
  bool supports_append() const override { return true; }
  void append_delta(const EdgeDelta& delta) override;

  /// Time spent replaying deltas + rebuilding views (Figure 9's
  /// "graph update time"). position_timer/view_timer split it into the
  /// Algorithm-2 replay phase and the view-maintenance phase.
  PhaseTimer& update_timer() { return update_timer_; }
  PhaseTimer& position_timer() { return position_timer_; }
  PhaseTimer& view_timer() { return view_timer_; }
  /// Time get_graph/get_backward_graph spent blocked on an in-flight
  /// prefetch (pipeline stall — the un-overlapped remainder of the update
  /// phase).
  PhaseTimer& stall_timer() { return stall_timer_; }

  /// Current PMA position (exposed for tests).
  uint32_t current_timestamp() const {
    sync();
    return curr_time_;
  }
  const Pma& pma() const {
    sync();
    return pma_;
  }
  /// Disable (and drop) both Algorithm-2 checkpoints (ablation bench).
  void set_cache_enabled(bool enabled);
  uint64_t delta_replays() const {
    sync();
    return delta_replays_;
  }
  /// Always 0: every refresh is a full rebuild. Kept because external
  /// benchmark code still reads it.
  uint64_t incremental_view_updates() const { return 0; }
  /// View refreshes (each one a full rebuild).
  uint64_t full_view_rebuilds() const { return full_view_rebuilds_; }
  uint64_t prefetch_hits() const { return prefetch_hits_; }
  uint64_t prefetch_misses() const { return prefetch_misses_; }
  /// Reset per-run instrumentation (timers + view counters).
  void reset_update_stats();

 private:
  struct DeviceDelta {
    DeviceBuffer<uint64_t> additions;
    DeviceBuffer<uint64_t> deletions;
  };

  /// The snapshot arrays of one timestamp — what kernels read while the
  /// pipeline worker mutates the live PMA. Two of these double-buffer the
  /// handoff: compute holds the active one, refreshes overwrite the
  /// standby one (whose previous contents were invalidated by the last
  /// get_* call, per the view-lifetime contract).
  struct PublishedView {
    // Gapped out-CSR over slot positions (dst and edge label per slot,
    // kSpace for gaps), degrees, degree orders, the Algorithm-3 reverse
    // CSR and the eid-indexed GCN-norm cache (empty when disabled).
    DeviceBuffer<uint32_t> col, eids, row_offset;
    DeviceBuffer<uint32_t> in_deg, out_deg;
    DeviceBuffer<uint32_t> fwd_order, bwd_order;
    DeviceBuffer<uint32_t> r_row_offset, r_col, r_eids;
    DeviceBuffer<float> gcn_coef;
    uint32_t num_edges = 0;
    uint32_t timestamp = 0;
    /// live_epoch_ at build time. A snapshot may only be served while
    /// this still matches: the PMA's physical slot layout at a timestamp
    /// is path-dependent (backward replay re-inserts deleted edges into
    /// possibly different gaps), and the serving contract promises the
    /// returned view agrees byte-for-byte with the live PMA positioned at
    /// t (see verify::check_pma_view_agreement).
    uint64_t live_epoch = 0;
    bool valid = false;

    std::size_t device_bytes() const {
      return col.bytes() + eids.bytes() + row_offset.bytes() +
             in_deg.bytes() + out_deg.bytes() + fwd_order.bytes() +
             bwd_order.bytes() + r_row_offset.bytes() + r_col.bytes() +
             r_eids.bytes() + gcn_coef.bytes();
    }
  };

  /// An Algorithm-2 checkpoint: the edge set at `timestamp` as a CSR
  /// (rows in source order, destinations ascending — the PMA's key order).
  /// Refreshed in place; the buffers keep their heap capacity.
  struct Checkpoint {
    DeviceBuffer<uint32_t> row_offset{0, MemCategory::kPma};
    DeviceBuffer<uint32_t> dst{0, MemCategory::kPma};
    uint32_t timestamp = 0;
    bool valid = false;

    std::size_t device_bytes() const {
      return row_offset.bytes() + dst.bytes();
    }
  };

  enum class PfState { kIdle, kPending, kDone };

  /// Roll the PMA to timestamp `target` (Algorithm 2 core).
  void position(uint32_t target);
  void apply_delta(uint32_t idx, bool forward);
  /// Rebuild `pub` from the PMA at the current position, stamp it, then
  /// audit it under STGRAPH_VALIDATE.
  void refresh_views(PublishedView& pub);
  /// Full O(capacity) rebuild into `pub`: relabel + row offsets + degrees
  /// + degree orders + reverse CSR, parallelized over slot ranges. Reuses
  /// the buffers' capacity.
  void full_rebuild_views(PublishedView& pub);
  /// Recompute the whole eid-indexed GCN-norm cache from `pub`'s reverse
  /// CSR (clearing the buffer when the cache is disabled).
  void rebuild_coef_cache(PublishedView& pub);
  /// Record the live PMA's edge set and position into `cp`.
  void save_checkpoint(Checkpoint& cp);
  /// Bulk-load the PMA from `cp` and recompute the degrees from it.
  void restore_checkpoint(const Checkpoint& cp);
  /// Whether `pub` may serve timestamp t (built at t, epoch still current).
  bool servable(const PublishedView& pub, uint32_t t) const;
  /// Assemble the kernel-facing view of a built buffer (pointer packing).
  SnapshotView make_view(const PublishedView& pub) const;
  /// Position + refresh timestamp `target` into the standby buffer. Runs
  /// on the caller's thread (prefetch miss / serial schedule) or on the
  /// worker under ScopedInline.
  void prepare(uint32_t target);
  /// Wait until the worker is idle (observers and mutators call this
  /// before touching live state). Keeps any worker error stored for the
  /// next get_* to rethrow, and keeps a completed result servable.
  void sync() const;
  /// Spawn the worker thread on first use.
  void ensure_worker();
  void worker_loop();

  uint32_t num_nodes_ = 0;
  Pma pma_;
  std::vector<DeviceDelta> deltas_;
  std::vector<uint32_t> edges_at_;  // |E_t| per timestamp
  // Degrees at the live position, maintained per replayed key.
  DeviceBuffer<uint32_t> in_deg_, out_deg_;

  uint32_t curr_time_ = 0;
  // Bumped by every repositioning; view buffers stamped with an older
  // epoch are no longer guaranteed byte-equal to the live PMA at their
  // timestamp and are treated as misses.
  uint64_t live_epoch_ = 0;

  // Algorithm-2 checkpoints (see the header comment). moving_forward_ is
  // the direction of the last repositioning: a backward one after it is
  // a turn.
  bool cache_enabled_ = true;
  Checkpoint turn_, origin_;
  bool moving_forward_ = true;

  PhaseTimer update_timer_;
  PhaseTimer position_timer_;
  PhaseTimer view_timer_;
  PhaseTimer stall_timer_;
  uint64_t delta_replays_ = 0;
  uint64_t full_view_rebuilds_ = 0;
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_misses_ = 0;

  // ---- bounded-staleness pipeline ---------------------------------------
  // Protocol: pf_state_ is the single-slot job queue. Main thread moves
  // kIdle -> kPending (prefetch) and kDone -> kIdle (consume/sync); the
  // worker moves kPending -> kDone after running prepare(). All live
  // mutable state (pma_, degrees, the standby view buffer, timers) is owned
  // by whoever the state machine says runs: the worker only between
  // kPending and kDone, the main thread only at kIdle/kDone — every
  // transition passes through pmu_, which carries the happens-before edge.
  // Compute kernels read only the active PublishedView, which nobody
  // writes while active.
  PublishedView pub_[2];
  int active_pub_ = 0;
  std::thread worker_;
  mutable Mutex pmu_{"gpma::GpmaGraph::pmu_"};
  mutable ConditionVariable pcv_;
  mutable PfState pf_state_ STG_GUARDED_BY(pmu_) = PfState::kIdle;
  uint32_t pf_target_ STG_GUARDED_BY(pmu_) = 0;
  bool pf_stop_ STG_GUARDED_BY(pmu_) = false;
  std::exception_ptr pf_error_ STG_GUARDED_BY(pmu_);
};

/// Algorithm 3, exposed standalone for unit tests and the ablation bench:
/// build the compacted reverse CSR of a gapped adjacency. Deterministic:
/// per-destination neighbor lists come out sorted by source (slot order)
/// regardless of the lane count. Reuses the output buffers' capacity.
void reverse_gpma(uint32_t num_nodes, const DeviceBuffer<uint32_t>& row_offset,
                  const DeviceBuffer<uint32_t>& col,
                  const DeviceBuffer<uint32_t>& eids,
                  const DeviceBuffer<uint32_t>& in_degrees, uint32_t num_edges,
                  DeviceBuffer<uint32_t>& r_row_offset,
                  DeviceBuffer<uint32_t>& r_col,
                  DeviceBuffer<uint32_t>& r_eids);

}  // namespace stgraph
