// stgbench — one benchmark for STGraph. See benchmark/README.md.
//
//   stgbench run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--smoke] [--break CHECK] [--out DIR]
//       (--seconds defaults to BENCHMARK.json's run_seconds)
//   stgbench compare PARENT_DIR CHANGE_DIR
//   stgbench summarize DIR
//   stgbench validate FILE...
//
// Every command runs from the repository root and reads BENCHMARK.json.
//
// `run` prints the effective configuration, every metric with its unit and
// every correctness check, writes DIR/<workload>.json (DIR/<workload>
// .traced.json and the trace-event file DIR/<workload>.trace.json for a
// traced run), and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// It exits 1 when a check fails, 2 on bad arguments.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hpp"
#include "trace.hpp"

extern char** environ;

namespace stgbench {
namespace {

int usage(const std::string& why) {
  std::cerr << "stgbench: " << why << "\n"
            << "usage: stgbench run --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--smoke] [--break CHECK] [--out DIR]\n"
               "       stgbench compare PARENT_DIR CHANGE_DIR\n"
               "       stgbench summarize DIR\n"
               "       stgbench validate FILE...\n";
  return 2;
}

/// Accepts "--key value" and "--key=value".
bool parse_run_options(const std::vector<std::string>& args, Options& o,
                       std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string key = args[i], value;
    const bool flag = key == "--smoke";
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (!flag) {
      if (i + 1 >= args.size()) {
        error = "missing value for " + key;
        return false;
      }
      value = args[++i];
    }
    try {
      if (key == "--workload") o.workload = value;
      else if (key == "--seed") o.seed = std::stoull(value);
      else if (key == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0)) throw std::invalid_argument("not positive");
      }
      else if (key == "--trace") o.trace = value == "1";
      else if (key == "--smoke") o.smoke = true;
      else if (key == "--break") o.break_check = value;
      else if (key == "--out") o.out_dir = value;
      else {
        error = "unknown option " + key;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (o.workload.empty()) error = "--workload is required";
  return error.empty();
}

/// The measured configuration is the library's defaults plus the
/// workload's thread count: drop every other STGRAPH_* knob the caller's
/// environment carries, and report what was dropped.
std::vector<std::string> pin_environment(unsigned threads) {
  std::vector<std::string> dropped;
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "STGRAPH_", 8) == 0) dropped.emplace_back(*e);
  for (const std::string& kv : dropped)
    ::unsetenv(kv.substr(0, kv.find('=')).c_str());
  ::setenv("STGRAPH_NUM_THREADS", std::to_string(threads).c_str(), 1);
  return dropped;
}

std::string metrics_object(const Result& r,
                           const std::vector<MetricSpec>& list) {
  std::ostringstream js;
  js << "{";
  for (std::size_t i = 0; i < list.size(); ++i)
    js << (i ? ", " : "") << '"' << list[i].name
       << "\": {\"value\": " << json_number(r.metrics().at(list[i].name))
       << ", \"unit\": \"" << list[i].unit << "\"}";
  js << "}";
  return js.str();
}

std::string result_file(const Options& o, const Provenance& prov,
                        const Result& r, const std::vector<MetricSpec>& list) {
  std::ostringstream js;
  js << "{\n  \"kind\": \"stgbench-result\",\n  \"workload\": \""
     << json_escape(o.workload) << "\",\n  \"seed\": " << o.seed
     << ",\n  \"trace\": " << (o.trace ? "true" : "false")
     << ",\n  \"smoke\": " << (o.smoke ? "true" : "false")
     << ",\n  \"provenance\": {";
  for (std::size_t i = 0; i < prov.size(); ++i)
    js << (i ? ", " : "") << "\n    \"" << json_escape(prov[i].first)
       << "\": \"" << json_escape(prov[i].second) << '"';
  js << "\n  },\n  \"correct\": " << (r.correct() ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": "
     << r.failed << ",\n  \"checks\": [";
  for (std::size_t i = 0; i < r.checks().size(); ++i) {
    const auto& c = r.checks()[i];
    js << (i ? "," : "") << "\n    {\"name\": \"" << json_escape(c.name)
       << "\", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": \""
       << json_escape(c.detail) << "\"}";
  }
  js << "\n  ],\n  \"metrics\": " << metrics_object(r, list)
     << ",\n  \"details\": {";
  bool first = true;
  for (const auto& [k, v] : r.details()) {
    js << (first ? "" : ", ") << "\n    \"" << json_escape(k)
       << "\": " << json_number(v);
    first = false;
  }
  js << "\n  },\n  \"notes\": {";
  first = true;
  for (const auto& [k, v] : r.notes()) {
    js << (first ? "" : ", ") << "\n    \"" << json_escape(k) << "\": \""
       << json_escape(v) << '"';
    first = false;
  }
  js << "\n  }\n}\n";
  return js.str();
}

int run_main(int argc, char** argv, const std::vector<std::string>& args) {
  Options o;
  std::string error;
  if (!parse_run_options(args, o, error)) return usage(error);
  const Spec spec = load_spec(kSpecPath);
  if (std::find(spec.workloads.begin(), spec.workloads.end(), o.workload) ==
          spec.workloads.end() ||
      workload_threads(o.workload) == 0)
    return usage("unknown workload '" + o.workload + "'");
  if (o.seconds == 0) o.seconds = spec.run_seconds;

  const std::vector<std::string> dropped =
      pin_environment(workload_threads(o.workload));
  if (o.workload == "serve-mixed") reserve_generator_cpu();
  Provenance prov = collect_provenance(argc, argv, o);
  for (const std::string& kv : dropped) {
    const std::size_t eq = kv.find('=');
    prov.emplace_back("env_dropped." + kv.substr(0, eq), kv.substr(eq + 1));
  }
  std::cout << "stgbench " << o.workload << (o.trace ? " (traced)" : "")
            << "\n";
  for (const auto& [k, v] : prov) std::cout << "  " << k << " = " << v << "\n";
  std::cout << std::flush;
  std::filesystem::create_directories(o.out_dir);

  Result result(spec);
  if (o.workload == "serve-mixed")
    run_serve(o, result);
  else
    run_train(o, result);

  // Untraced runs report the end-to-end metrics, traced runs the per-layer
  // ones; a layer a workload does not exercise reads 0.
  const std::vector<MetricSpec>& list = o.trace ? spec.per_layer : spec.end_to_end;
  for (const MetricSpec& m : list)
    if (!result.metrics().count(m.name)) {
      if (!o.trace) {
        std::cerr << "stgbench: end-to-end metric " << m.name
                  << " was not measured\n";
        return 1;
      }
      result.set(m.name, 0);
    }

  std::cout << "\nmetrics (" << o.workload << ")\n";
  for (const MetricSpec& m : list) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-28s %14.6g %s\n", m.name.c_str(),
                  result.metrics().at(m.name), m.unit.c_str());
    std::cout << line;
  }
  for (const auto& [k, v] : result.details())
    std::cout << "  (" << k << " = " << v << ")\n";
  std::cout << "checks\n";
  for (const auto& c : result.checks())
    std::cout << "  " << (c.ok ? "ok  " : "FAIL") << " " << c.name << ": "
              << c.detail << "\n";

  const std::string base = o.out_dir + "/" + o.workload;
  const std::string path = base + (o.trace ? ".traced.json" : ".json");
  std::ofstream(path) << result_file(o, prov, result, list);
  std::cout << "wrote " << path << "\n";
  if (o.trace) {
    if (!trace::write_chrome_json(base + ".trace.json", prov)) {
      std::cerr << "stgbench: cannot write " << base << ".trace.json\n";
      return 1;
    }
    std::cout << "wrote " << base << ".trace.json\n";
  }
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"metrics\": " << metrics_object(result, list) << "}"
            << std::endl;
  return result.correct() ? 0 : 1;
}

/// `validate`: each file is a result file, a final stdout line or a
/// trace-event file; checks the fields the benchmark promises.
int validate_main(const std::vector<std::string>& files) {
  const Spec spec = load_spec(kSpecPath);
  int bad = 0;
  for (const std::string& f : files) {
    std::string why;
    try {
      const Json j = read_json_file(f);
      if (j["traceEvents"].kind == Json::Kind::kArray) {
        if (j["traceEvents"].array.empty()) why = "no trace events";
        for (const Json& e : j["traceEvents"].array)
          if (e["ph"].string != "X" || e["name"].string.empty() ||
              e["ts"].kind != Json::Kind::kNumber ||
              e["dur"].kind != Json::Kind::kNumber)
            why = "malformed trace event";
      } else {
        // A result file says whether it was traced; a final stdout line
        // does not, and must hold exactly one of the two metric lists.
        const Json& metrics = j["metrics"];
        const bool result_file = j["kind"].string == "stgbench-result";
        const bool traced = result_file
                                ? j["trace"].boolean
                                : !metrics[spec.end_to_end[0].name].is_object();
        const std::vector<MetricSpec>& list =
            traced ? spec.per_layer : spec.end_to_end;
        if (result_file && j["provenance"]["git_sha"].string.empty())
          why = "no provenance";
        if (j["correct"].kind != Json::Kind::kBool) why = "no correct flag";
        if (!(j["attempted"].number >= 1)) why = "attempted < 1";
        if (j["failed"].kind != Json::Kind::kNumber) why = "no failed count";
        if (metrics.object.size() != list.size())
          why = "metric count " + std::to_string(metrics.object.size());
        for (const MetricSpec& m : list) {
          const Json& v = metrics[m.name];
          if (v["value"].kind != Json::Kind::kNumber ||
              v["unit"].string != m.unit)
            why = "metric " + m.name + " missing or without its unit";
        }
      }
    } catch (const std::exception& e) {
      why = e.what();
    }
    std::cout << (why.empty() ? "ok   " : "BAD  ") << f
              << (why.empty() ? "" : ": " + why) << "\n";
    bad += !why.empty();
  }
  return bad ? 1 : 0;
}

}  // namespace
}  // namespace stgbench

int main(int argc, char** argv) {
  using namespace stgbench;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string cmd = "run";
  if (!args.empty() && args[0].rfind("--", 0) != 0) {
    cmd = args[0];
    args.erase(args.begin());
  }
  try {
    if (cmd == "run") return run_main(argc, argv, args);
    if (cmd == "compare") return compare_main(args);
    if (cmd == "summarize") return summarize_main(args);
    if (cmd == "validate") {
      if (args.empty()) return usage("validate needs files");
      return validate_main(args);
    }
    return usage("unknown command '" + cmd + "'");
  } catch (const std::exception& e) {
    std::cerr << "stgbench: " << e.what() << "\n";
    return 1;
  }
}
