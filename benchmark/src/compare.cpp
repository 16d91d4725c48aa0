// `stgbench compare` applies the gain / regression rule to two directories
// of result files (parent and change); `stgbench summarize` reports the
// run-to-run spread of one directory, which `run.sh calibrate` turns into
// bounds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "common.hpp"

namespace stgbench {
namespace {

struct Run {
  std::string path;
  std::string workload;
  bool trace = false;
  uint64_t seed = 0;
  double attempted = 0, failed = 0;
  std::map<std::string, double> values;  ///< metrics and details
};

using Group = std::vector<Run>;  // one workload, traced or not

// Timings that are not end-to-end metrics (every end-to-end metric must
// exist on every workload, and these move with the host's phases) but a
// comparison should still show.
constexpr const char* kComparedDetails[] = {"epoch_s", "predict_p50_us",
                                            "predict_p99_us", "ingest_p50_ms"};

/// Every stgbench result file under `dir`, grouped by (workload, traced)
/// and ordered by (seed, path), so that the runs of one seed pair up across
/// sides in a fixed order.
std::map<std::pair<std::string, bool>, Group> load_runs(const std::string& dir) {
  std::map<std::pair<std::string, bool>, Group> groups;
  if (!std::filesystem::is_directory(dir))
    throw std::runtime_error(dir + " is not a directory");
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".json")
      continue;
    Json j;
    try {
      j = read_json_file(entry.path().string());
    } catch (const std::exception&) {
      continue;  // not ours
    }
    if (j["kind"].string != "stgbench-result") continue;
    Run r;
    r.path = entry.path().string();
    r.workload = j["workload"].string;
    r.trace = j["trace"].boolean;
    r.seed = static_cast<uint64_t>(j["seed"].number);
    r.attempted = j["attempted"].number;
    r.failed = j["failed"].number;
    for (const auto& [name, m] : j["metrics"].object)
      r.values[name] = m["value"].number;
    for (const char* name : kComparedDetails)
      if (const Json& v = j["details"][name]; v.kind == Json::Kind::kNumber)
        r.values["(" + std::string(name) + ")"] = v.number;
    groups[{r.workload, r.trace}].push_back(std::move(r));
  }
  for (auto& [key, runs] : groups)
    std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
      return a.seed != b.seed ? a.seed < b.seed : a.path < b.path;
    });
  return groups;
}

std::vector<double> column(const Group& g, const std::string& name) {
  std::vector<double> v;
  for (const Run& r : g)
    if (auto it = r.values.find(name); it != r.values.end())
      v.push_back(it->second);
  return v;
}

/// (parent, change) values of `name` from runs with the same seed: the k-th
/// parent run of a seed pairs with the k-th change run of that seed. Seeds
/// present on one side only, and runs without the metric, pair with nothing.
std::vector<std::pair<double, double>> pairs_by_seed(const Group& parent,
                                                     const Group& change,
                                                     const std::string& name) {
  std::map<uint64_t, std::vector<double>> by_seed;
  for (const Run& r : change)
    if (auto it = r.values.find(name); it != r.values.end())
      by_seed[r.seed].push_back(it->second);
  std::map<uint64_t, std::size_t> used;
  std::vector<std::pair<double, double>> out;
  for (const Run& r : parent) {
    auto it = r.values.find(name);
    auto c = by_seed.find(r.seed);
    if (it == r.values.end() || c == by_seed.end()) continue;
    std::size_t& k = used[r.seed];
    if (k < c->second.size()) out.emplace_back(it->second, c->second[k++]);
  }
  return out;
}

double error_frac(const Group& g) {
  double attempted = 0, failed = 0;
  for (const Run& r : g) {
    attempted += r.attempted;
    failed += r.failed;
  }
  return attempted > 0 ? failed / attempted : 0;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.5g", v);
  return buf;
}

struct Verdict {
  std::string word;
  int wins = 0, pairs = 0;
};

/// The gate rule for one (metric, workload) pair. `pairs` are the
/// seed-matched (parent, change) values. bound < 0: a per-layer or
/// informational metric, judged for gain or loss only.
Verdict judge(const std::vector<double>& parent,
              const std::vector<double>& change,
              const std::vector<std::pair<double, double>>& pairs,
              bool lower_better, double bound) {
  Verdict v;
  auto better = [&](double a, double b) {
    return lower_better ? a < b : a > b;
  };
  v.pairs = static_cast<int>(pairs.size());
  int losses = 0;
  for (const auto& [p, c] : pairs) {
    if (better(c, p)) ++v.wins;
    if (better(p, c)) ++losses;
  }
  const Quartiles p = quartiles(parent), c = quartiles(change);
  const double diff = c.median - p.median;
  const double worse = (lower_better ? diff : -diff) / std::fabs(p.median);
  const bool moved = std::fabs(diff) > p.q3 - p.q1;
  const bool gain = v.pairs > 0 && v.wins >= 0.9 * v.pairs && moved &&
                    better(c.median, p.median);
  const bool loss = v.pairs > 0 && losses >= 0.9 * v.pairs && moved &&
                    better(p.median, c.median);
  // Every change run better than every parent run settles a wide spread.
  const double worst_change =
      lower_better ? *std::max_element(change.begin(), change.end())
                   : *std::min_element(change.begin(), change.end());
  const double best_parent =
      lower_better ? *std::min_element(parent.begin(), parent.end())
                   : *std::max_element(parent.begin(), parent.end());
  const bool separated = better(worst_change, best_parent);
  const double spread =
      std::max((p.q3 - p.q1) / std::fabs(p.median),
               (c.q3 - c.q1) / std::fabs(c.median));
  if (bound >= 0 && worse > bound) v.word = "REGRESSED";
  else if (gain) v.word = "gain";
  else if (bound < 0) v.word = loss ? "loss" : "-";
  else if (spread > bound && !separated) v.word = "unresolved";
  else v.word = "same";
  return v;
}

}  // namespace

int compare_main(const std::vector<std::string>& args) {
  const Spec spec = load_spec(kSpecPath);
  if (args.size() != 2) {
    std::cerr << "usage: stgbench compare PARENT_DIR CHANGE_DIR\n";
    return 2;
  }
  const auto parent = load_runs(args[0]);
  const auto change = load_runs(args[1]);
  bool regressed = false;
  int rows = 0;
  char line[256];
  for (const auto& [key, pruns] : parent) {
    auto it = change.find(key);
    if (it == change.end()) continue;
    const Group& cruns = it->second;
    std::set<uint64_t> change_seeds;
    for (const Run& r : cruns) change_seeds.insert(r.seed);
    const auto paired = std::count_if(
        pruns.begin(), pruns.end(),
        [&](const Run& r) { return change_seeds.count(r.seed) > 0; });
    std::cout << "== " << key.first << (key.second ? " (traced)" : "")
              << ": parent " << pruns.size() << " runs, change "
              << cruns.size() << " runs, " << paired
              << " parent runs with a seed on both sides\n";
    std::snprintf(line, sizeof(line), "  %-28s %-32s %-32s %8s %6s  %s\n",
                  "metric", "parent median [q1, q3]", "change median [q1, q3]",
                  "delta", "wins", "verdict");
    std::cout << line;
    std::set<std::string> names;
    for (const Run& r : pruns)
      for (const auto& [n, v] : r.values) names.insert(n);
    for (const std::string& name : names) {
      const std::vector<double> p = column(pruns, name), c = column(cruns, name);
      if (p.empty() || c.empty()) continue;
      const MetricSpec* m = spec.find(name);
      const bool gated = !key.second && spec.is_end_to_end(name);
      const Verdict v = judge(p, c, pairs_by_seed(pruns, cruns, name),
                              m ? m->lower_is_better : true,
                              gated ? m->bound : -1);
      regressed = regressed || v.word == "REGRESSED";
      const Quartiles qp = quartiles(p), qc = quartiles(c);
      const std::string ps =
          fmt(qp.median) + " [" + fmt(qp.q1) + ", " + fmt(qp.q3) + "]";
      const std::string cs =
          fmt(qc.median) + " [" + fmt(qc.q1) + ", " + fmt(qc.q3) + "]";
      const double delta =
          qp.median != 0 ? 100.0 * (qc.median - qp.median) / std::fabs(qp.median)
                         : 0.0;
      std::snprintf(line, sizeof(line), "  %-28s %-32s %-32s %+7.2f%% %2d/%-3d  %s\n",
                    name.c_str(), ps.c_str(), cs.c_str(), delta, v.wins,
                    v.pairs, v.word.c_str());
      std::cout << line;
      ++rows;
    }
    const double pe = error_frac(pruns), ce = error_frac(cruns);
    const bool worse = ce > pe;
    regressed = regressed || worse;
    std::cout << "  error_frac: parent " << fmt(pe) << ", change " << fmt(ce)
              << (worse ? "  ERRORS UP" : "") << "\n";
  }
  if (rows == 0) {
    std::cerr << "stgbench compare: no workload has runs on both sides\n";
    return 2;
  }
  return regressed ? 1 : 0;
}

int summarize_main(const std::vector<std::string>& args) {
  const Spec spec = load_spec(kSpecPath);
  if (args.size() != 1) {
    std::cerr << "usage: stgbench summarize DIR\n";
    return 2;
  }
  const auto groups = load_runs(args[0]);
  std::ostringstream js;
  js << "{\n  \"kind\": \"stgbench-summary\",\n  \"groups\": [";
  std::set<std::string> over;
  char line[256];
  bool first_group = true;
  for (const auto& [key, runs] : groups) {
    std::cout << "== " << key.first << (key.second ? " (traced)" : "") << ": "
              << runs.size() << " runs\n";
    std::snprintf(line, sizeof(line), "  %-28s %12s %12s %12s %9s %9s %9s\n",
                  "metric", "median", "q1", "q3", "iqr/med", "range/med",
                  "bound");
    std::cout << line;
    js << (first_group ? "" : ",") << "\n    {\"workload\": \"" << key.first
       << "\", \"trace\": " << (key.second ? "true" : "false")
       << ", \"runs\": " << runs.size() << ", \"metrics\": {";
    first_group = false;
    std::set<std::string> names;
    for (const Run& r : runs)
      for (const auto& [n, v] : r.values) names.insert(n);
    bool first = true;
    for (const std::string& name : names) {
      const std::vector<double> v = column(runs, name);
      const Quartiles q = quartiles(v);
      const double med = std::fabs(q.median) > 0 ? std::fabs(q.median) : 1;
      const double iqr = (q.q3 - q.q1) / med;
      const double range =
          (*std::max_element(v.begin(), v.end()) -
           *std::min_element(v.begin(), v.end())) / med;
      const bool e2e = !key.second && spec.is_end_to_end(name);
      // Calibration rule: bound = max(range spread, 3 x IQR spread, 5%),
      // so the quartile spread of later runs stays well inside it; a
      // metric over 10% needs a longer run (setup_s is bounded separately,
      // at the cap).
      const double bound = std::max({range, 3 * iqr, 0.05});
      if (e2e && name != "setup_s" && range > 0.10) over.insert(key.first);
      std::snprintf(line, sizeof(line), "  %-28s %12.6g %12.6g %12.6g %8.2f%% %8.2f%% %9s\n",
                    name.c_str(), q.median, q.q1, q.q3, 100 * iqr, 100 * range,
                    e2e ? fmt(bound).c_str() : "");
      std::cout << line;
      js << (first ? "" : ",") << "\n      \"" << json_escape(name)
         << "\": {\"median\": " << json_number(q.median)
         << ", \"q1\": " << json_number(q.q1) << ", \"q3\": "
         << json_number(q.q3) << ", \"iqr_spread\": " << json_number(iqr)
         << ", \"range_spread\": " << json_number(range);
      if (e2e) js << ", \"suggested_bound\": " << json_number(bound);
      js << "}";
      first = false;
    }
    js << "}}";
  }
  js << "\n  ]\n}\n";
  const std::string out = args[0] + "/summary.json";
  std::ofstream(out) << js.str();
  std::cout << "wrote " << out << "\nover_10pct:";
  for (const std::string& w : over) std::cout << " " << w;
  std::cout << "\n";
  return 0;
}

}  // namespace stgbench
