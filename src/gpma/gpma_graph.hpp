// GPMAGraph (paper §V-D): a DTDG stored as a base graph inside a Packed
// Memory Array plus per-timestamp edge deltas. Snapshots are constructed
// on demand:
//
//   * Algorithm 2 (Get-Graph): roll the PMA from its cached position to the
//     requested timestamp by replaying (or inverting) deltas, then relabel
//     edges 0..m-1 in slot order so forward and backward views share
//     labels. A snapshot cache avoids replaying a whole sequence's deltas
//     when training moves from the backward pass of one sequence to the
//     forward pass of the next.
//   * Algorithm 3 (Reverse-GPMA): build the compacted reverse CSR
//     (in-neighbor view for the forward pass) straight from the gapped PMA
//     arrays with a per-destination prefix-sum + deterministic scatter.
//
// View maintenance is delta-bounded: the PMA reports which leaf segments a
// batch touched (Pma::dirty_leaves()), and when the touched fraction is
// below a quarter of the slot array the snapshot arrays are patched in
// place — edge labels are recomputed only inside the dirty windows and
// shifted by a constant elsewhere, row offsets are repaired with one
// forward sweep, the degree orders are repaired by merging the few
// vertices whose degree changed back into the (still sorted) survivor
// stream, and the reverse CSR is spliced per destination. Past the
// threshold (or after a capacity change) the full rebuild runs, itself
// parallelized with a count/prefix/scatter pass over slot ranges. Both
// paths produce bit-identical views for any thread count.
//
// The backward pass consumes the gapped PMA arrays directly (kernels skip
// SPACE slots), so no out-CSR is ever materialized.
//
// Bounded-staleness pipeline (STGRAPH_PIPELINE, default on): get_graph
// returns views over a *published copy* of the snapshot arrays, double-
// buffered, so a background worker can roll the live PMA to the next hinted
// timestamp (prefetch(), called by the trainer/executor) and publish its
// views into the standby buffer while kernels read the active one. The
// staleness bound is 1 — at most one prefetch in flight, into the one
// standby buffer — and the worker runs every pool-using builder under
// ThreadPool::ScopedInline (serially), both because run_on_lanes is a
// single-launcher protocol and because views are bit-identical at any lane
// count, so overlap changes nothing downstream. A published snapshot of
// timestamp t is immutable and stays valid across epochs (the DTDG's state
// at t is a pure function of t). With the pipeline off, get_graph points
// views directly at the live arrays exactly as before — zero copies.
//
// Edge aggregation over these views has one schedule: the kernel engine
// walks the degree orders (fwd/bwd node_ids) with strided lanes, each row
// reduced by one lane in CSR order, so outputs are bit-identical at any
// lane count.
#pragma once

#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
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
  /// and publishes t's views into the standby buffer while the caller keeps
  /// computing on the active one. No-op when the pipeline is off or a
  /// prefetch is already in flight (staleness bound 1).
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
  /// Disable the Algorithm-2 snapshot cache (ablation bench).
  void set_cache_enabled(bool enabled) { cache_enabled_ = enabled; }
  /// Disable the delta-bounded incremental view path (ablation bench /
  /// parity tests); every refresh then takes the full-rebuild path.
  void set_incremental_views(bool enabled) {
    incremental_views_enabled_ = enabled;
  }
  /// Disable the per-snapshot GCN-norm edge-coefficient cache (ablation
  /// bench / parity tests); kernels then recompute the factor per edge.
  void set_coef_cache_enabled(bool enabled);
  /// Toggle the bounded-staleness pipeline (STGRAPH_PIPELINE sets the
  /// default). Off degrades to the serial schedule: get_graph does the
  /// replay + refresh inline and views point at the live arrays.
  void set_pipeline_enabled(bool enabled);
  bool pipeline_enabled() const { return pipeline_enabled_; }
  uint64_t delta_replays() const { return delta_replays_; }
  uint64_t incremental_view_updates() const {
    return incremental_view_updates_;
  }
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

  /// One immutable published copy of the snapshot arrays for a timestamp —
  /// what kernels read while the pipeline worker mutates the live state.
  /// Two of these double-buffer the handoff: compute holds the active one,
  /// the worker overwrites the standby one (whose previous contents were
  /// invalidated by the last get_* call, per the view-lifetime contract).
  struct PublishedView {
    DeviceBuffer<uint32_t> col, eids, row_offset;
    DeviceBuffer<uint32_t> in_deg, out_deg;
    DeviceBuffer<uint32_t> fwd_order, bwd_order;
    DeviceBuffer<uint32_t> r_row_offset, r_col, r_eids;
    DeviceBuffer<float> gcn_coef;
    uint32_t num_edges = 0;
    uint32_t timestamp = 0;
    /// live_epoch_ at publish time. A snapshot may only be served while
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

  enum class PfState { kIdle, kPending, kDone };

  /// Roll the PMA to timestamp `target` (Algorithm 2 core).
  void position(uint32_t target);
  void apply_delta(uint32_t idx, bool forward);
  /// Bring every derived view array up to date with the PMA, choosing the
  /// incremental or full path; clears the delta bookkeeping.
  void refresh_views();
  /// Full O(capacity) rebuild: relabel + row offsets + degree orders +
  /// reverse CSR, parallelized over slot ranges. Reuses buffers.
  void full_rebuild_views();
  /// Delta-bounded in-place patch of every view array. Returns false if
  /// the delta shape turned out unpatchable (caller falls back).
  bool incremental_update();
  /// Recompute the whole eid-indexed GCN-norm cache from the reverse CSR
  /// (no-op clearing the buffer when the cache is disabled).
  void rebuild_coef_cache();
  /// Merge `affected` (vertices whose degree changed, sorted canonically)
  /// back into the degree order `order` under (deg desc, id asc).
  void repair_order(DeviceBuffer<uint32_t>& order, const uint32_t* deg,
                    std::vector<uint32_t>& affected);
  void save_cache();
  void restore_cache();
  /// Assemble the kernel-facing view of the current position from the
  /// derived arrays (pointer packing only; requires fresh views).
  SnapshotView make_view() const;
  /// Assemble the kernel-facing view of a published copy.
  SnapshotView make_view(const PublishedView& pub) const;
  /// Position + refresh + publish timestamp `target` into the standby
  /// buffer. Runs on the caller's thread (prefetch miss / serial fill) or
  /// on the worker under ScopedInline.
  void prepare(uint32_t target);
  /// Copy the live view arrays into `pub` and stamp it.
  void publish(PublishedView& pub);
  /// Wait until the worker is idle (observers and mutators call this
  /// before touching live state). Keeps any worker error stored for the
  /// next get_* to rethrow, and keeps a completed result published.
  void sync() const;
  /// Spawn the worker thread on first use.
  void ensure_worker();
  void worker_loop();

  uint32_t num_nodes_ = 0;
  Pma pma_;
  std::vector<DeviceDelta> deltas_;
  std::vector<uint32_t> edges_at_;  // |E_t| per timestamp

  // Derived per-snapshot arrays (device-resident).
  DeviceBuffer<uint32_t> col_;         // dst per slot, kSpace for gaps
  DeviceBuffer<uint32_t> eids_;        // edge label per slot
  DeviceBuffer<uint32_t> row_offset_;  // V+1, into slot positions
  DeviceBuffer<uint32_t> in_deg_, out_deg_;
  DeviceBuffer<uint32_t> fwd_order_, bwd_order_;
  // Algorithm-3 output.
  DeviceBuffer<uint32_t> r_row_offset_, r_col_, r_eids_;
  // Per-snapshot GCN-norm cache indexed by eid, maintained alongside the
  // views: rebuilt by full_rebuild_views(), patched (gather survivors
  // through eid_remap_, recompute around changed in-degrees) by
  // incremental_update(). Empty when disabled.
  DeviceBuffer<float> gcn_coef_, gcn_coef_scratch_;
  bool coef_cache_enabled_ = true;
  // Persistent scratch for the incremental splice / order repair (swapped
  // with the live arrays, so allocations amortize away).
  DeviceBuffer<uint32_t> r_row_offset_scratch_, r_col_scratch_,
      r_eids_scratch_;
  DeviceBuffer<uint32_t> order_scratch_;
  std::vector<uint8_t> order_mark_;
  // Host-side scratch for the incremental path (kept across refreshes so
  // the per-step patch allocates nothing in steady state): the dirty
  // windows' old/new live contents and the old-label -> new-label map.
  std::vector<uint64_t> win_old_keys_, win_new_keys_;
  std::vector<uint32_t> win_old_eids_, win_new_eids_;
  std::vector<uint32_t> eid_remap_;

  uint32_t curr_time_ = 0;
  // Bumped by every repositioning; published snapshots stamped with an
  // older epoch are no longer guaranteed byte-equal to the live PMA at
  // their timestamp and are treated as misses.
  uint64_t live_epoch_ = 0;
  bool views_fresh_ = false;

  // Delta bookkeeping between refreshes: every key actually applied to the
  // PMA since the views were last rebuilt (multiple applications of the
  // same key cancel out to a net add / net delete / survivor).
  std::vector<uint64_t> pending_add_, pending_del_;
  bool views_force_full_ = false;      // e.g. after a cache restore
  bool incremental_views_enabled_ = true;

  // Algorithm-2 cache: deep PMA copy + degrees at cache_time_.
  bool cache_enabled_ = true;
  std::optional<Pma> cache_pma_;
  std::vector<uint32_t> cache_in_deg_, cache_out_deg_;
  uint32_t cache_time_ = 0;

  PhaseTimer update_timer_;
  PhaseTimer position_timer_;
  PhaseTimer view_timer_;
  PhaseTimer stall_timer_;
  uint64_t delta_replays_ = 0;
  uint64_t incremental_view_updates_ = 0;
  uint64_t full_view_rebuilds_ = 0;
  uint64_t prefetch_hits_ = 0;
  uint64_t prefetch_misses_ = 0;

  // ---- bounded-staleness pipeline ---------------------------------------
  // Protocol: pf_state_ is the single-slot job queue. Main thread moves
  // kIdle -> kPending (prefetch) and kDone -> kIdle (consume/sync); the
  // worker moves kPending -> kDone after running prepare(). All live
  // mutable state (pma_, degrees, view arrays, timers) is owned by whoever
  // the state machine says runs: the worker only between kPending and
  // kDone, the main thread only at kIdle/kDone — every transition passes
  // through pmu_, which carries the happens-before edge. Compute kernels
  // read only the active PublishedView, which nobody writes while active.
  bool pipeline_enabled_ = true;
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
