// Shared harness code for the figure/table benches: experiment runners for
// each system (STGraph static, STGraph-Naive, STGraph-GPMA, PyG-T
// baseline), wall-clock + peak-device-memory measurement, CLI parsing and
// CSV emission.
//
// Scaling: the paper ran 100 epochs per point on an A100; these binaries
// default to a scale factor and epoch count that finish each figure in
// minutes on a small CPU host. Pass --scale/--epochs/--timestamps to
// approach paper-sized runs; shapes (who wins, where crossovers fall) are
// stable across scales because they are driven by V/E/density ratios.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "datasets/synthetic.hpp"
#include "util/csv.hpp"

namespace stgraph::bench {

struct BenchOptions {
  double scale_static = 0.25;
  double scale_dynamic = 0.02;
  uint32_t timestamps = 24;   // static-temporal signal length
  uint32_t warmup_epochs = 1; // ignored in reported numbers (GPU-warmup analogue)
  uint32_t epochs = 2;        // measured epochs
  uint32_t sequence_length = 8;
  std::string csv_dir;        // when set, each bench also writes <name>.csv
  bool full = false;          // paper-sized sweeps
};

/// Parse --scale-static= --scale-dynamic= --timestamps= --epochs=
/// --warmup= --seq-len= --csv-dir= --full from argv.
BenchOptions parse_options(int argc, char** argv);

/// One measured configuration's result.
struct RunResult {
  double per_epoch_seconds = 0.0;
  double peak_device_mib = 0.0;
  double final_loss = 0.0;
  double graph_update_seconds = 0.0;  // per epoch
  double gnn_seconds = 0.0;           // per epoch
  // GPMAGraph-only split of graph_update_seconds (zero for other systems):
  // Algorithm-2 delta replay vs snapshot-view rebuild.
  double position_seconds = 0.0;      // per epoch
  double view_seconds = 0.0;          // per epoch
  // Pipeline phase split (zero for non-GPMA systems or pipeline off):
  // model compute per direction, time Get-Graph spent blocked on an
  // in-flight background prepare, and the prefetch hit/miss counters
  // (counters summed over the measured epochs).
  double forward_seconds = 0.0;       // per epoch
  double backward_seconds = 0.0;      // per epoch
  double stall_seconds = 0.0;         // per epoch
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_misses = 0;
  // Fusing-compiler evidence (PR 9): unfused tape launches (elementwise +
  // activation) and the intermediate bytes they materialized, vs fused
  // region launches and their output bytes — per epoch, averaged over the
  // measured epochs. With fusion on, tape_* shrinks and fused_* absorbs
  // the collapsed regions.
  uint64_t tape_op_count = 0;
  uint64_t tape_bytes = 0;
  uint64_t fused_op_count = 0;
  uint64_t fused_bytes = 0;
};

enum class System { kStgraphStatic, kStgraphNaive, kStgraphGpma, kPygt };
const char* system_name(System s);

/// Train a TGCN regressor on a static-temporal dataset and measure.
RunResult run_static(const datasets::StaticTemporalDataset& ds,
                     const datasets::TemporalSignal& signal, System system,
                     const BenchOptions& opts, int64_t hidden = 16);

/// Train a TGCN link-prediction encoder on a DTDG and measure.
/// `events` must come from the same dataset for every system compared.
RunResult run_dtdg(const DtdgEvents& events,
                   const datasets::TemporalSignal& signal, System system,
                   const BenchOptions& opts, int64_t hidden = 16);

/// Print a table and optionally persist CSV under opts.csv_dir.
void emit(const std::string& bench_name, const CsvWriter& csv,
          const BenchOptions& opts);

/// Feature sizes swept by the time figures.
std::vector<int64_t> feature_sweep(const BenchOptions& opts);

}  // namespace stgraph::bench
