#include "common.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/backend.hpp"

extern char** environ;

namespace stgbench {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(::sched_getcpu());
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld == 1) {
    q.q1 = q.median = q.q3 = v[0];
    return q;
  }
  double out[3];
  const long n = 4, m = ld + 1;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    out[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                  v[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  q.q1 = out[0];
  q.median = out[1];
  q.q3 = out[2];
  return q;
}

// ---- JSON ------------------------------------------------------------------

const Json& Json::operator[](const std::string& key) const {
  static const Json kNull;
  if (kind != Kind::kObject) return kNull;
  auto it = object.find(key);
  return it == object.end() ? kNull : it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::strchr(" \t\r\n", s_[pos_])) ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail("unexpected character");
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.kind = Json::Kind::kObject;
      if (consume('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.object[key] = value();
      } while (consume(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.kind = Json::Kind::kArray;
      if (consume(']')) return v;
      do v.array.push_back(value());
      while (consume(','));
      expect(']');
    } else if (c == '"') {
      v.kind = Json::Kind::kString;
      v.string = string();
    } else if (literal("true")) {
      v.kind = Json::Kind::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = Json::Kind::kBool;
    } else if (literal("null")) {
      v.kind = Json::Kind::kNull;
    } else {
      v.kind = Json::Kind::kNumber;
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  std::string string() {
    if (pos_ >= s_.size() || s_[pos_] != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("bad escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // The benchmark's own files never escape beyond ASCII; keep
            // the code point's low byte.
            if (pos_ + 4 > s_.size()) fail("bad \\u escape");
            c = static_cast<char>(std::stoi(s_.substr(pos_, 4), nullptr, 16));
            pos_ += 4;
            break;
          default: c = e;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;
    return out;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

Json parse_json(const std::string& text) { return Parser(text).parse(); }

Json read_json_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  try {
    return parse_json(ss.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  if (v == std::trunc(v) && std::fabs(v) < 9e15)
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  else
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- spec --------------------------------------------------------------------

const MetricSpec* Spec::find(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer})
    for (const MetricSpec& m : *list)
      if (m.name == name) return &m;
  return nullptr;
}

bool Spec::is_end_to_end(const std::string& name) const {
  for (const MetricSpec& m : end_to_end)
    if (m.name == name) return true;
  return false;
}

Spec load_spec(const std::string& path) {
  const Json j = read_json_file(path);
  Spec spec;
  spec.run_seconds = j["run_seconds"].number;
  for (const Json& w : j["workloads"].array)
    spec.workloads.push_back(w["name"].string);
  auto metrics = [](const Json& list) {
    std::vector<MetricSpec> out;
    for (const Json& m : list.array) {
      MetricSpec s;
      s.name = m["name"].string;
      s.unit = m["unit"].string;
      s.lower_is_better = m["better"].string != "higher";
      s.bound = m["bound"].number;
      out.push_back(std::move(s));
    }
    return out;
  };
  spec.end_to_end = metrics(j["end_to_end"]);
  spec.per_layer = metrics(j["per_layer"]);
  if (spec.workloads.empty() || spec.end_to_end.empty() ||
      !(spec.run_seconds > 0))
    throw std::runtime_error(path +
                             ": no workloads, end_to_end metrics or run_seconds");
  return spec;
}

// ---- result ------------------------------------------------------------------

void Result::set(const std::string& name, double value) {
  if (!spec_.find(name))
    throw std::runtime_error("metric '" + name +
                             "' is not listed in BENCHMARK.json");
  metrics_[name] = value;
}

bool Result::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
  return ok;
}

bool Result::correct() const {
  for (const CheckRecord& c : checks_)
    if (!c.ok) return false;
  return !checks_.empty();
}

bool breaking(const Options& opts, const std::string& name) {
  return opts.break_check == name;
}

// ---- provenance --------------------------------------------------------------

namespace {

std::string run_command(const char* cmd) {
  std::string out;
  if (FILE* p = ::popen(cmd, "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof(buf), p)) out += buf;
    ::pclose(p);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' '))
    out.pop_back();
  return out;
}

}  // namespace

Provenance collect_provenance(int argc, char** argv, const Options& opts) {
  Provenance p;
  // Ask git only inside a git checkout of its own: git would otherwise
  // search the parent directories, outside the benchmark's tree.
  if (::access(".git", F_OK) == 0) {
    const std::string sha = run_command("git rev-parse HEAD 2>/dev/null");
    const std::string dirty =
        run_command("git status --porcelain --untracked-files=no 2>/dev/null");
    p.emplace_back("git_sha", sha.empty() ? "unknown" : sha);
    p.emplace_back("git_dirty", dirty.empty() ? "false" : "true");
  } else {
    p.emplace_back("git_sha", "unknown (not a git checkout)");
    p.emplace_back("git_dirty", "unknown");
  }
  char host[256] = {};
  ::gethostname(host, sizeof(host) - 1);
  p.emplace_back("host", host);
  p.emplace_back("nproc", std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)));
  p.emplace_back("device", stgraph::core::native_backend().device_info());
  p.emplace_back("build_type", STGBENCH_BUILD_TYPE);
  p.emplace_back("cxx_flags", STGBENCH_CXX_FLAGS);
  std::string cmd;
  for (int i = 0; i < argc; ++i) cmd += (i ? " " : "") + std::string(argv[i]);
  p.emplace_back("command", cmd);
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "STGRAPH_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      p.emplace_back("env." + std::string(*e, static_cast<std::size_t>(eq - *e)), eq + 1);
    }
  p.emplace_back("workload", opts.workload);
  p.emplace_back("seed", std::to_string(opts.seed));
  p.emplace_back("seconds", json_number(opts.seconds));
  p.emplace_back("trace", opts.trace ? "1" : "0");
  p.emplace_back("smoke", opts.smoke ? "1" : "0");
  char utc[32];
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  ::gmtime_r(&now, &tm);
  std::strftime(utc, sizeof(utc), "%Y-%m-%dT%H:%M:%SZ", &tm);
  p.emplace_back("utc", utc);
  return p;
}

unsigned workload_threads(const std::string& workload) {
  // Training runs at one lane: on a shared 4-vCPU host the median epoch of
  // a multi-lane run moved 2-5x more from run to run than a one-lane run's
  // did (README.md, "Workloads"), too much for a regression bound.
  if (workload == "train-static") return 1;
  if (workload == "train-dtdg") return 1;
  if (workload == "serve-mixed") return 2;
  return 0;
}

}  // namespace stgbench
