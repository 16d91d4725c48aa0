#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace stgraph::serve {

namespace {

std::size_t bucket_for(double micros) {
  if (micros < 1.0) return 0;
  const auto us = static_cast<uint64_t>(micros);
  std::size_t b = 0;
  // floor(log2(us)): 64 - clz, minus one for the leading bit itself.
  for (uint64_t v = us; v > 1; v >>= 1) ++b;
  return std::min(b, LatencyHistogram::kBuckets - 1);
}

void atomic_max(std::atomic<uint64_t>& slot, uint64_t value) {
  uint64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < value &&
         !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void LatencyHistogram::record(double micros) {
  if (micros < 0.0 || !std::isfinite(micros)) micros = 0.0;
  buckets_[bucket_for(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<uint64_t>(micros), std::memory_order_relaxed);
  atomic_max(max_us_, static_cast<uint64_t>(micros));
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const uint64_t n = other.buckets_[b].load(std::memory_order_relaxed);
    if (n != 0) buckets_[b].fetch_add(n, std::memory_order_relaxed);
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_us_.fetch_add(other.sum_us_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  atomic_max(max_us_, other.max_us_.load(std::memory_order_relaxed));
}

double LatencyHistogram::mean_micros() const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

double LatencyHistogram::percentile(double p) const {
  const uint64_t n = count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the sample we want, 1-based; p=100 -> the last sample.
  const auto rank = static_cast<uint64_t>(
      std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(n))));
  uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      // Upper bound of bucket b: 2^(b+1) µs (bucket 0 is [0, 2) µs).
      return static_cast<double>(uint64_t{1} << (b + 1));
    }
  }
  return max_micros();
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

void ServerStats::configure(std::size_t num_readers) {
  if (num_readers == 0) num_readers = 1;
  reader_hist_ = std::vector<LatencyHistogram>(num_readers);
  reader_ = std::vector<ReaderCounters>(num_readers);
}

void ServerStats::record_issued() {
  issued_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_request(double total_micros, uint64_t output_rows,
                                 std::size_t reader) {
  if (reader == kNoReader)
    latency_.record(total_micros);
  else
    reader_hist_[reader].record(total_micros);
  requests_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(output_rows, std::memory_order_relaxed);
}

void ServerStats::record_batch(std::size_t occupancy) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_requests_.fetch_add(occupancy, std::memory_order_relaxed);
}

void ServerStats::record_forward(double seconds) {
  forward_passes_.fetch_add(1, std::memory_order_relaxed);
  forward_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                        std::memory_order_relaxed);
}

void ServerStats::record_cache_hit() {
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_failed() {
  failed_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_shed(ShedReason reason) {
  shed_[static_cast<std::size_t>(reason)].fetch_add(1,
                                                    std::memory_order_relaxed);
}

void ServerStats::record_ingest_shed(ShedReason reason) {
  record_shed(reason);
  ingest_shed_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_stale_served(double total_micros,
                                      uint64_t output_rows) {
  latency_.record(total_micros);
  stale_served_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(output_rows, std::memory_order_relaxed);
}

void ServerStats::record_circuit_trip() {
  circuit_trips_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_watchdog_stall() {
  watchdog_stalls_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::record_wal_append(uint64_t bytes) {
  wal_records_.fetch_add(1, std::memory_order_relaxed);
  wal_bytes_.fetch_add(bytes, std::memory_order_relaxed);
}

void ServerStats::set_recovery(uint64_t records, double seconds) {
  recovered_records_.store(records, std::memory_order_relaxed);
  recovery_ns_.store(static_cast<uint64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
}

void ServerStats::record_ingest(uint64_t edges, double seconds) {
  deltas_applied_.fetch_add(1, std::memory_order_relaxed);
  delta_edges_.fetch_add(edges, std::memory_order_relaxed);
  ingest_ns_.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

void ServerStats::record_swap() {
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
}

void ServerStats::mark_serving_started(int64_t steady_ns) {
  serving_started_ns_.store(steady_ns, std::memory_order_relaxed);
  for (auto& r : reader_) r.busy_ns.store(0, std::memory_order_relaxed);
}

void ServerStats::add_reader_busy(std::size_t reader, uint64_t busy_ns) {
  reader_[reader].busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
}

StatsReport ServerStats::report(std::size_t max_queue_depth,
                                HealthState health,
                                int64_t steady_now_ns) const {
  StatsReport r;
  r.issued = issued_.load(std::memory_order_relaxed);
  r.requests = requests_.load(std::memory_order_relaxed);
  r.rows = rows_.load(std::memory_order_relaxed);
  r.failed = failed_.load(std::memory_order_relaxed);
  r.shed_queue_full = shed(ShedReason::kQueueFull);
  r.shed_deadline_expired = shed(ShedReason::kDeadlineExpired);
  r.shed_draining = shed(ShedReason::kDraining);
  r.shed_circuit_open = shed(ShedReason::kCircuitOpen);
  r.shed_total = r.shed_queue_full + r.shed_deadline_expired +
                 r.shed_draining + r.shed_circuit_open;
  r.ingest_shed = ingest_shed_.load(std::memory_order_relaxed);
  r.stale_served = stale_served_.load(std::memory_order_relaxed);
  r.circuit_trips = circuit_trips_.load(std::memory_order_relaxed);
  r.watchdog_stalls = watchdog_stalls_.load(std::memory_order_relaxed);
  r.health = to_string(health);

  // Aggregate latency: the shared histogram (stale reads, legacy callers)
  // plus every reader's private histogram. merge() is associative, so this
  // is the same distribution a single shared histogram would have seen.
  LatencyHistogram merged;
  merged.merge(latency_);
  for (const auto& h : reader_hist_) merged.merge(h);
  r.p50_us = merged.percentile(50.0);
  r.p95_us = merged.percentile(95.0);
  r.p99_us = merged.percentile(99.0);
  r.p999_us = merged.percentile(99.9);
  r.mean_us = merged.mean_micros();
  r.max_us = merged.max_micros();

  r.reader_threads = reader_.size();
  const int64_t started = serving_started_ns_.load(std::memory_order_relaxed);
  const double wall_ns =
      (started > 0 && steady_now_ns > started)
          ? static_cast<double>(steady_now_ns - started)
          : 0.0;
  r.reader_utilization.reserve(reader_.size());
  for (const auto& rc : reader_) {
    const double busy =
        static_cast<double>(rc.busy_ns.load(std::memory_order_relaxed));
    r.reader_utilization.push_back(
        wall_ns > 0.0 ? std::min(1.0, busy / wall_ns) : 0.0);
  }

  r.batches = batches_.load(std::memory_order_relaxed);
  const uint64_t br = batch_requests_.load(std::memory_order_relaxed);
  r.batch_occupancy =
      r.batches ? static_cast<double>(br) / static_cast<double>(r.batches)
                : 0.0;
  r.max_queue_depth = max_queue_depth;
  r.forward_passes = forward_passes_.load(std::memory_order_relaxed);
  r.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  r.forward_seconds =
      static_cast<double>(forward_ns_.load(std::memory_order_relaxed)) * 1e-9;
  r.deltas_applied = deltas_applied_.load(std::memory_order_relaxed);
  r.delta_edges = delta_edges_.load(std::memory_order_relaxed);
  r.ingest_seconds =
      static_cast<double>(ingest_ns_.load(std::memory_order_relaxed)) * 1e-9;
  r.delta_edges_per_sec =
      r.ingest_seconds > 0.0
          ? static_cast<double>(r.delta_edges) / r.ingest_seconds
          : 0.0;
  r.wal_records = wal_records_.load(std::memory_order_relaxed);
  r.wal_bytes = wal_bytes_.load(std::memory_order_relaxed);
  r.recovered_records = recovered_records_.load(std::memory_order_relaxed);
  r.recovery_seconds =
      static_cast<double>(recovery_ns_.load(std::memory_order_relaxed)) * 1e-9;
  r.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  return r;
}

std::string StatsReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"issued\": " << issued << ",\n";
  os << "  \"requests\": " << requests << ",\n";
  os << "  \"rows\": " << rows << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"shed\": {\"queue_full\": " << shed_queue_full
     << ", \"deadline_expired\": " << shed_deadline_expired
     << ", \"draining\": " << shed_draining
     << ", \"circuit_open\": " << shed_circuit_open
     << ", \"total\": " << shed_total << "},\n";
  os << "  \"ingest_shed\": " << ingest_shed << ",\n";
  os << "  \"stale_served\": " << stale_served << ",\n";
  os << "  \"circuit_trips\": " << circuit_trips << ",\n";
  os << "  \"watchdog_stalls\": " << watchdog_stalls << ",\n";
  os << "  \"health\": \"" << health << "\",\n";
  os << "  \"latency_us\": {\"p50\": " << p50_us << ", \"p95\": " << p95_us
     << ", \"p99\": " << p99_us << ", \"p999\": " << p999_us
     << ", \"mean\": " << mean_us << ", \"max\": " << max_us << "},\n";
  os << "  \"batches\": " << batches << ",\n";
  os << "  \"batch_occupancy\": " << batch_occupancy << ",\n";
  os << "  \"max_queue_depth\": " << max_queue_depth << ",\n";
  os << "  \"reader_threads\": " << reader_threads << ",\n";
  os << "  \"reader_utilization\": [";
  for (std::size_t i = 0; i < reader_utilization.size(); ++i)
    os << (i ? ", " : "") << reader_utilization[i];
  os << "],\n";
  os << "  \"forward_passes\": " << forward_passes << ",\n";
  os << "  \"cache_hits\": " << cache_hits << ",\n";
  os << "  \"forward_seconds\": " << forward_seconds << ",\n";
  os << "  \"deltas_applied\": " << deltas_applied << ",\n";
  os << "  \"delta_edges\": " << delta_edges << ",\n";
  os << "  \"ingest_seconds\": " << ingest_seconds << ",\n";
  os << "  \"delta_edges_per_sec\": " << delta_edges_per_sec << ",\n";
  os << "  \"wal_records\": " << wal_records << ",\n";
  os << "  \"wal_bytes\": " << wal_bytes << ",\n";
  os << "  \"recovered_records\": " << recovered_records << ",\n";
  os << "  \"recovery_seconds\": " << recovery_seconds << ",\n";
  os << "  \"snapshot_swaps\": " << snapshot_swaps << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace stgraph::serve
