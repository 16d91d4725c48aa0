// Shared pieces of stgbench: the run options, the metric spec read from
// BENCHMARK.json, the result of one run, statistics helpers and a small
// JSON reader/writer for the benchmark's own files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace stgbench {

/// Steady-clock nanoseconds (the one clock every stgbench timing uses).
int64_t now_ns();

// ---- statistics ----------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);

/// First quartile, median and third quartile as Python's
/// statistics.quantiles(values, n=4) computes them (the "exclusive"
/// method), so the numbers here match the acceptance rule's.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};
Quartiles quartiles(std::vector<double> v);

// ---- JSON ----------------------------------------------------------------

/// Parsed JSON value. Objects keep their keys sorted (std::map); stgbench
/// never depends on key order.
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member lookup; null when absent or when this is not an object.
  const Json& operator[](const std::string& key) const;
  bool is_object() const { return kind == Kind::kObject; }
};

/// Throws std::runtime_error with the offset of the first syntax error.
Json parse_json(const std::string& text);
/// Reads and parses a file; throws on I/O or syntax errors.
Json read_json_file(const std::string& path);

std::string json_escape(const std::string& s);
/// A number with all its digits (%.17g); integers print without exponent.
std::string json_number(double v);

// ---- metric spec (BENCHMARK.json) ------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_is_better = true;
  double bound = 0;  ///< end-to-end only: allowed worsening, share of median
};

struct Spec {
  /// Length of one measured run when `--seconds` is not given.
  double run_seconds = 0;
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;

  const MetricSpec* find(const std::string& name) const;
  bool is_end_to_end(const std::string& name) const;
};

Spec load_spec(const std::string& path);

// ---- one run ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 42;
  /// Measured seconds; 0 until resolved to the spec's run_seconds.
  double seconds = 0;
  bool trace = false;
  /// Tiny sizes for `run.sh smoke`: every code path, seconds not minutes.
  bool smoke = false;
  /// Name of one correctness check whose input is tampered with so that it
  /// must fail — proves each check can fail (`run.sh smoke`).
  std::string break_check;
  std::string out_dir = "benchmark/out";
};

/// The spec every stgbench command reads, relative to the repository root
/// it runs from.
inline constexpr const char* kSpecPath = "BENCHMARK.json";

/// Everything one `stgbench run` produces. Metric names are validated
/// against the spec: set() throws for a name BENCHMARK.json does not list,
/// so the binary and the spec cannot drift apart silently.
class Result {
 public:
  explicit Result(const Spec& spec) : spec_(spec) {}

  void set(const std::string& name, double value);
  /// Workload-specific numbers that are not spec metrics (epoch_s,
  /// predict_p99_us, ...): kept in the result file for `compare`.
  void detail(const std::string& name, double value) { details_[name] = value; }
  void note(const std::string& name, std::string value) {
    notes_[name] = std::move(value);
  }
  /// Records a correctness check; returns `ok`.
  bool check(const std::string& name, bool ok, const std::string& detail);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  bool correct() const;
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, double>& details() const { return details_; }
  const std::map<std::string, std::string>& notes() const { return notes_; }
  struct CheckRecord {
    std::string name;
    bool ok;
    std::string detail;
  };
  const std::vector<CheckRecord>& checks() const { return checks_; }

 private:
  const Spec& spec_;
  std::map<std::string, double> metrics_;
  std::map<std::string, double> details_;
  std::map<std::string, std::string> notes_;
  std::vector<CheckRecord> checks_;
};

/// Whether `name` is the check `run.sh smoke` asked to break.
bool breaking(const Options& opts, const std::string& name);

// ---- provenance ------------------------------------------------------------

/// Ordered key/value pairs describing where a number came from: git sha,
/// host, nproc, SIMD ISA, build, command line, STGRAPH_* environment,
/// seed, UTC time.
using Provenance = std::vector<std::pair<std::string, std::string>>;
Provenance collect_provenance(int argc, char** argv, const Options& opts);

// ---- workloads -------------------------------------------------------------

/// Thread count each workload runs with (applied as STGRAPH_NUM_THREADS
/// before the library's pool starts); 0 for an unknown name.
unsigned workload_threads(const std::string& workload);

void run_train(const Options& opts, Result& result);
void run_serve(const Options& opts, Result& result);

/// serve-mixed keeps its load generator on a CPU of its own, so generator
/// and server do not take turns on one core. Restricts the calling thread,
/// and so every thread it starts later (the library's pool included), to
/// the other CPUs. Call before anything starts a thread; no-op on one CPU.
void reserve_generator_cpu();

// ---- threads and CPUs --------------------------------------------------------

/// The CPUs the calling thread may run on, in increasing order.
std::vector<int> allowed_cpus();
/// Restricts the calling thread to one CPU.
void pin_to_cpu(int cpu);

/// Joins its threads when it goes out of scope, on every path.
struct JoinAll {
  std::vector<std::thread> threads;
  ~JoinAll() {
    for (std::thread& t : threads) t.join();
  }
};

/// `stgbench compare` / `stgbench summarize`; return the process exit code.
int compare_main(const std::vector<std::string>& args);
int summarize_main(const std::vector<std::string>& args);

}  // namespace stgbench
