// Serving observability (the serve subsystem's stats surface): per-request
// latency percentiles from a fixed-bucket histogram, micro-batch
// occupancy, queue pressure, delta-ingestion throughput, and the
// robustness counters (typed shed reasons, stale reads, circuit trips,
// watchdog stalls, WAL volume, recovery cost). Everything is lock-free
// (atomic counters and buckets) so the hot predict path never takes a
// lock to record a sample, and report() can be called from any thread
// while the server runs. The JSON form of a report is what
// `run_all.sh serve-smoke` writes to BENCH_serve.json, what
// bench_serve_robust writes to BENCH_serve_robust.json, and what the
// network front-end's STATS verb returns on the wire.
//
// Reader replication: each replicated reader thread records request
// latency into its OWN LatencyHistogram (no shared cache line on the hot
// path); report() merges the per-reader histograms with the shared one
// (stale reads recorded from client threads) via LatencyHistogram::merge.
// Merge is associative and order-independent — bucket-wise addition — so
// the aggregate percentiles are independent of reader count.
//
// Accounting invariant (asserted from a StatsReport alone by the serve,
// serve_mt, serve_net and chaos tests): every predict the server ever
// accepted a call for lands in exactly one of
//   requests (fulfilled) | stale_served | failed | shed[reason],
// and the shed counters also count ingests shed on the writer path, which
// `ingest_shed` reports on its own, so once the server is quiescent
//   issued == requests + stale_served + failed + (shed_total - ingest_shed)
// — nothing is silently dropped. (`failed` counts predicts only: a failed
// ingest throws to its caller and is not counted.)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/health.hpp"
#include "util/thread_annotations.hpp"

namespace stgraph::serve {

// Concurrency contract: every member of LatencyHistogram and ServerStats
// is a std::atomic touched with relaxed ordering — there is deliberately
// no lock for Clang Thread Safety Analysis to track here (the analysis
// sees atomics as unguarded by design). The TSan job is what exercises
// this file's lock-freedom claims; the lint job proves the rest of the
// serve layer never reaches these counters while holding exec_mu_ out of
// order (see Server's STG_ACQUIRED_BEFORE chain).

/// Fixed-bucket log-2 latency histogram: bucket i counts samples in
/// [2^i, 2^(i+1)) microseconds, so 40 buckets span 1 µs to ~12.7 days.
/// percentile() returns the upper bound of the bucket holding the
/// requested rank — resolution is a factor of two, which is what a serving
/// dashboard needs (is p99 1 ms or 1 s?), at the cost of zero allocation
/// and O(1) recording.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(double micros);
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double mean_micros() const;
  double max_micros() const {
    return static_cast<double>(max_us_.load(std::memory_order_relaxed));
  }
  /// p in (0, 100]; returns 0 when no samples were recorded.
  double percentile(double p) const;
  void reset();

  /// Fold `other`'s samples into this histogram: bucket-wise addition plus
  /// count/sum/max. Associative and commutative (each field merges through
  /// + or max), so per-reader-thread histograms aggregate into one report
  /// in any order with identical percentiles — the property the reader
  /// replication design relies on. `other` may be concurrently recording;
  /// the merge reads each cell once (relaxed), which can lag in-flight
  /// samples but never tears.
  void merge(const LatencyHistogram& other);

  /// Raw bucket occupancy (tests: merge associativity, quantile checks).
  uint64_t bucket_count(std::size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// One coherent read of the counters (values are sampled independently —
/// a report taken mid-flight can be off by in-flight requests, never torn).
struct StatsReport {
  // ---- request path ----------------------------------------------------
  uint64_t issued = 0;          ///< predict calls submitted
  uint64_t requests = 0;        ///< fulfilled predict() calls (fresh step)
  uint64_t rows = 0;            ///< output rows served across all requests
  uint64_t failed = 0;          ///< requests failed (dispatch fault, bad node)
  double p50_us = 0.0, p95_us = 0.0, p99_us = 0.0, p999_us = 0.0;
  double mean_us = 0.0, max_us = 0.0;
  // ---- load shedding (typed rejection taxonomy) ------------------------
  uint64_t shed_queue_full = 0;       ///< bounded queue / quota exceeded
  uint64_t shed_deadline_expired = 0; ///< at admission, dequeue or completion
  uint64_t shed_draining = 0;         ///< rejected during stop()
  uint64_t shed_circuit_open = 0;     ///< circuit open, no stale step
  uint64_t shed_total = 0;            ///< predict and ingest sheds
  uint64_t ingest_shed = 0;           ///< the ingests among shed_total
  // ---- degraded mode ---------------------------------------------------
  uint64_t stale_served = 0;    ///< predicts answered from the last-good step
  uint64_t circuit_trips = 0;   ///< circuit open transitions
  uint64_t watchdog_stalls = 0; ///< exec-loop stalls the watchdog flagged
  std::string health = "starting";
  // ---- batching --------------------------------------------------------
  uint64_t batches = 0;         ///< micro-batches dispatched
  double batch_occupancy = 0.0; ///< mean requests per dispatched batch
  std::size_t max_queue_depth = 0;
  // ---- replicated readers ----------------------------------------------
  uint64_t reader_threads = 0;
  /// Fraction of wall time (since start()) each reader spent inside a
  /// batch; the headroom signal the load generator reports alongside
  /// throughput.
  std::vector<double> reader_utilization;
  // ---- execution -------------------------------------------------------
  uint64_t forward_passes = 0;  ///< fresh forward executions
  uint64_t cache_hits = 0;      ///< batches/ingests served from the cached step
  double forward_seconds = 0.0;
  // ---- ingestion -------------------------------------------------------
  uint64_t deltas_applied = 0;
  uint64_t delta_edges = 0;     ///< additions + deletions across all batches
  double ingest_seconds = 0.0;
  double delta_edges_per_sec = 0.0;
  // ---- durability ------------------------------------------------------
  uint64_t wal_records = 0;     ///< records appended this run
  uint64_t wal_bytes = 0;
  uint64_t recovered_records = 0;  ///< WAL records replayed by recover()
  double recovery_seconds = 0.0;   ///< wall time of the last recover()
  // ---- snapshot lifecycle ----------------------------------------------
  uint64_t snapshot_swaps = 0;

  std::string to_json() const;
};

/// Thread-safe counter bundle owned by serve::Server.
///
/// Reader histograms are sized once by configure() (called from the Server
/// constructor, before any thread can record) and never resized, so every
/// record_* stays lock-free. `reader` selects the per-reader histogram;
/// kNoReader records into the shared histogram (stale reads, which are
/// served from client threads).
class ServerStats {
 public:
  static constexpr std::size_t kNoReader = ~std::size_t{0};

  ServerStats() { configure(1); }

  /// Size the per-reader slots. Must be called before any recording
  /// thread exists (Server constructor).
  void configure(std::size_t num_readers);

  void record_issued();
  void record_request(double total_micros, uint64_t output_rows,
                      std::size_t reader = kNoReader);
  void record_batch(std::size_t occupancy);
  void record_forward(double seconds);
  void record_cache_hit();
  void record_failed();
  /// A shed predict.
  void record_shed(ShedReason reason);
  /// A shed ingest: counted under its reason and in ingest_shed.
  void record_ingest_shed(ShedReason reason);
  void record_stale_served(double total_micros, uint64_t output_rows);
  void record_circuit_trip();
  void record_watchdog_stall();
  void record_ingest(uint64_t edges, double seconds);
  void record_wal_append(uint64_t bytes);
  void set_recovery(uint64_t records, double seconds);
  void record_swap();

  /// Reader-thread liveness accounting: stamp the serving start (start()),
  /// and add the wall time reader `r` spent processing a batch.
  void mark_serving_started(int64_t steady_ns);
  void add_reader_busy(std::size_t reader, uint64_t busy_ns);

  const LatencyHistogram& latency() const { return latency_; }
  uint64_t shed(ShedReason reason) const {
    return shed_[static_cast<std::size_t>(reason)].load(
        std::memory_order_relaxed);
  }
  /// `max_queue_depth` comes from the request queue, which tracks it;
  /// `health` from the server's state machine; `steady_now_ns` anchors the
  /// reader-utilization denominators.
  StatsReport report(std::size_t max_queue_depth,
                     HealthState health = HealthState::kStarting,
                     int64_t steady_now_ns = 0) const;

 private:
  struct ReaderCounters {
    std::atomic<uint64_t> busy_ns{0};
  };

  LatencyHistogram latency_;
  std::vector<LatencyHistogram> reader_hist_;
  std::vector<ReaderCounters> reader_;
  std::atomic<int64_t> serving_started_ns_{0};
  std::atomic<uint64_t> issued_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> failed_{0};
  std::array<std::atomic<uint64_t>, 4> shed_{};
  std::atomic<uint64_t> ingest_shed_{0};
  std::atomic<uint64_t> stale_served_{0};
  std::atomic<uint64_t> circuit_trips_{0};
  std::atomic<uint64_t> watchdog_stalls_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batch_requests_{0};
  std::atomic<uint64_t> forward_passes_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> forward_ns_{0};
  std::atomic<uint64_t> deltas_applied_{0};
  std::atomic<uint64_t> delta_edges_{0};
  std::atomic<uint64_t> ingest_ns_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> wal_bytes_{0};
  std::atomic<uint64_t> recovered_records_{0};
  std::atomic<uint64_t> recovery_ns_{0};
  std::atomic<uint64_t> snapshot_swaps_{0};
};

}  // namespace stgraph::serve
