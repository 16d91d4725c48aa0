// Table III: maximum and average improvement of the STGraph variants over
// PyG-T, aggregated over the same sweeps the figures run (feature sizes
// for time; sequence lengths / %-changes for memory). Expected shape:
// Naive the best DTDG speedup, GPMA the best DTDG memory; static STGraph
// ahead of PyG-T on both axes.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.hpp"

using namespace stgraph;
using namespace stgraph::bench;

namespace {
struct Agg {
  std::vector<double> ratios;
  void add(double r) { ratios.push_back(r); }
  double max() const {
    return ratios.empty() ? 0 : *std::max_element(ratios.begin(), ratios.end());
  }
  double avg() const {
    double s = 0;
    for (double r : ratios) s += r;
    return ratios.empty() ? 0 : s / ratios.size();
  }
};
}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = parse_options(argc, argv);

  Agg static_time, static_mem, naive_time, naive_mem, gpma_time, gpma_mem;
  // Fusing-compiler evidence, summed over every STGraph run in the time
  // sweeps: unfused tape launches vs fused-region launches and the
  // intermediate bytes each side materialized per epoch.
  uint64_t tape_ops = 0, fused_ops = 0;
  double tape_mib = 0.0, fused_mib = 0.0;
  auto add_profile = [&](const RunResult& r) {
    tape_ops += r.tape_op_count;
    fused_ops += r.fused_op_count;
    tape_mib += r.tape_bytes / (1024.0 * 1024.0);
    fused_mib += r.fused_bytes / (1024.0 * 1024.0);
  };

  // ---- static-temporal sweep (time over feature sizes, memory too) -----
  datasets::StaticLoadOptions so;
  so.scale = opts.scale_static;
  so.num_timestamps = opts.timestamps;
  for (const auto& ds : datasets::load_all_static(so)) {
    for (int64_t F : feature_sweep(opts)) {
      const auto signal = datasets::make_static_signal(ds, F, 1234);
      const RunResult st = run_static(ds, signal, System::kStgraphStatic, opts);
      const RunResult pt = run_static(ds, signal, System::kPygt, opts);
      static_time.add(pt.per_epoch_seconds /
                      std::max(st.per_epoch_seconds, 1e-9));
      static_mem.add(pt.peak_device_mib / std::max(st.peak_device_mib, 1e-9));
      add_profile(st);
      std::cout << "." << std::flush;
    }
  }

  // ---- DTDG sweep (time over feature sizes at 5%, memory over %-change) --
  datasets::DynamicLoadOptions dyo;
  dyo.scale = opts.scale_dynamic;
  for (const auto& ds : datasets::load_all_dynamic(dyo)) {
    const DtdgEvents ev5 = datasets::make_dtdg(ds, 5.0);
    for (int64_t F : feature_sweep(opts)) {
      dyo.feature_size = F;
      const auto signal = datasets::make_dynamic_signal(ev5, dyo);
      const RunResult naive = run_dtdg(ev5, signal, System::kStgraphNaive, opts);
      const RunResult gpma = run_dtdg(ev5, signal, System::kStgraphGpma, opts);
      const RunResult pygt = run_dtdg(ev5, signal, System::kPygt, opts);
      naive_time.add(pygt.per_epoch_seconds /
                     std::max(naive.per_epoch_seconds, 1e-9));
      gpma_time.add(pygt.per_epoch_seconds /
                    std::max(gpma.per_epoch_seconds, 1e-9));
      add_profile(naive);
      add_profile(gpma);
      std::cout << "." << std::flush;
    }
    dyo.feature_size = 8;
    for (double pct : {2.5, 5.0, 10.0}) {
      const DtdgEvents ev = datasets::make_dtdg(ds, pct);
      const auto signal = datasets::make_dynamic_signal(ev, dyo);
      BenchOptions mem_opts = opts;
      mem_opts.epochs = 1;
      const RunResult naive =
          run_dtdg(ev, signal, System::kStgraphNaive, mem_opts);
      const RunResult gpma =
          run_dtdg(ev, signal, System::kStgraphGpma, mem_opts);
      const RunResult pygt = run_dtdg(ev, signal, System::kPygt, mem_opts);
      naive_mem.add(pygt.peak_device_mib /
                    std::max(naive.peak_device_mib, 1e-9));
      gpma_mem.add(pygt.peak_device_mib / std::max(gpma.peak_device_mib, 1e-9));
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";

  CsvWriter csv({"Metric", "Static", "Naive", "GPMA", "Paper_Static",
                 "Paper_Naive", "Paper_GPMA"});
  csv.add_row({"Time per epoch (max)", CsvWriter::fmt(static_time.max(), 2),
               CsvWriter::fmt(naive_time.max(), 2),
               CsvWriter::fmt(gpma_time.max(), 2), "1.69", "1.65", "1.20"});
  csv.add_row({"Time per epoch (avg)", CsvWriter::fmt(static_time.avg(), 2),
               CsvWriter::fmt(naive_time.avg(), 2),
               CsvWriter::fmt(gpma_time.avg(), 2), "1.28", "1.22", "0.86"});
  csv.add_row({"Memory consumed (max)", CsvWriter::fmt(static_mem.max(), 2),
               CsvWriter::fmt(naive_mem.max(), 2),
               CsvWriter::fmt(gpma_mem.max(), 2), "2.14", "1.10", "1.91"});
  csv.add_row({"Memory consumed (avg)", CsvWriter::fmt(static_mem.avg(), 2),
               CsvWriter::fmt(naive_mem.avg(), 2),
               CsvWriter::fmt(gpma_mem.avg(), 2), "1.30", "0.98", "1.23"});
  emit("table3_improvements", csv, opts);

  // Tape-vs-fused launch profile over the same sweeps (per-epoch counters
  // summed across all STGraph runs). bench_micro_kernels' fusion ablation
  // shows the same counters with the unfused replay installed.
  CsvWriter pcsv({"Counter", "Tape", "Fused"});
  pcsv.add_row({"Elementwise launches / epoch", std::to_string(tape_ops),
                std::to_string(fused_ops)});
  pcsv.add_row({"Intermediates MiB / epoch", CsvWriter::fmt(tape_mib, 2),
                CsvWriter::fmt(fused_mib, 2)});
  emit("table3_op_profile", pcsv, opts);
  return 0;
}
