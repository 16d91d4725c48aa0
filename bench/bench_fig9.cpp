// Figure 9: percentage breakup of STGraph-GPMA's total processing time
// into GNN processing time and graph update time, per DTDG, across
// feature sizes (5% snapshot change). Expected shape: the graph-update
// share shrinks as the feature size grows.
//
// The update time is further split into its two phases (Algorithm-2 delta
// replay vs snapshot-view rebuild). Everything is also written as
// BENCH_fig9.json (path via --json-out=, default BENCH_fig9.json; empty to
// skip).
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hpp"

using namespace stgraph;
using namespace stgraph::bench;

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BenchOptions opts = parse_options(argc, argv);
  std::string json_out = "BENCH_fig9.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json-out=", 0) == 0) json_out = arg.substr(11);
  }

  datasets::DynamicLoadOptions dyo;
  dyo.scale = opts.scale_dynamic;

  CsvWriter csv({"dataset", "feature_size", "update_s", "position_s",
                 "view_s", "gnn_s", "forward_s", "backward_s", "stall_s",
                 "pf_hits", "pf_misses", "update_pct", "gnn_pct",
                 "tape_ops", "tape_mib", "fused_ops", "fused_mib"});
  std::ostringstream rows_json;

  bool first_row = true;
  for (const auto& ds : datasets::load_all_dynamic(dyo)) {
    const DtdgEvents events = datasets::make_dtdg(ds, 5.0);
    for (int64_t F : feature_sweep(opts)) {
      dyo.feature_size = F;
      const datasets::TemporalSignal signal =
          datasets::make_dynamic_signal(events, dyo);
      const RunResult gpma =
          run_dtdg(events, signal, System::kStgraphGpma, opts);
      const double total = gpma.graph_update_seconds + gpma.gnn_seconds;
      csv.add_row({ds.name, std::to_string(F),
                   CsvWriter::fmt(gpma.graph_update_seconds, 4),
                   CsvWriter::fmt(gpma.position_seconds, 4),
                   CsvWriter::fmt(gpma.view_seconds, 4),
                   CsvWriter::fmt(gpma.gnn_seconds, 4),
                   CsvWriter::fmt(gpma.forward_seconds, 4),
                   CsvWriter::fmt(gpma.backward_seconds, 4),
                   CsvWriter::fmt(gpma.stall_seconds, 4),
                   std::to_string(gpma.prefetch_hits),
                   std::to_string(gpma.prefetch_misses),
                   CsvWriter::fmt(100.0 * gpma.graph_update_seconds /
                                      std::max(total, 1e-9),
                                  1),
                   CsvWriter::fmt(100.0 * gpma.gnn_seconds /
                                      std::max(total, 1e-9),
                                  1),
                   std::to_string(gpma.tape_op_count),
                   CsvWriter::fmt(gpma.tape_bytes / (1024.0 * 1024.0), 2),
                   std::to_string(gpma.fused_op_count),
                   CsvWriter::fmt(gpma.fused_bytes / (1024.0 * 1024.0), 2)});
      rows_json << (first_row ? "" : ",") << "\n    {\"dataset\": \""
                << json_escape(ds.name) << "\", \"feature_size\": " << F
                << ", \"update_s\": " << gpma.graph_update_seconds
                << ", \"position_s\": " << gpma.position_seconds
                << ", \"view_s\": " << gpma.view_seconds
                << ", \"gnn_s\": " << gpma.gnn_seconds
                << ", \"forward_s\": " << gpma.forward_seconds
                << ", \"backward_s\": " << gpma.backward_seconds
                << ", \"stall_s\": " << gpma.stall_seconds
                << ", \"prefetch_hits\": " << gpma.prefetch_hits
                << ", \"prefetch_misses\": " << gpma.prefetch_misses
                << ", \"tape_ops\": " << gpma.tape_op_count
                << ", \"tape_bytes\": " << gpma.tape_bytes
                << ", \"fused_ops\": " << gpma.fused_op_count
                << ", \"fused_bytes\": " << gpma.fused_bytes << "}";
      first_row = false;
      std::cout << "." << std::flush;
    }
  }
  std::cout << "\n";
  emit("fig9_gpma_time_breakup", csv, opts);

  if (!json_out.empty()) {
    std::ofstream f(json_out);
    f << "{\n  \"bench\": \"fig9_gpma_time_breakup\",\n  \"rows\": ["
      << rows_json.str() << "\n  ]\n}\n";
    std::cout << "(wrote " << json_out << ")\n";
  }
  return 0;
}
