#include "runtime/analyze.hpp"

#include <execinfo.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/env.hpp"

namespace stgraph::analyze {

namespace detail {
std::atomic<bool> g_armed{false};
}  // namespace detail

namespace {

constexpr int kMaxFrames = 24;
/// Frames of the hook machinery itself to drop from captured stacks (the
/// backtrace call, capture_stack, the on_* hook).
constexpr int kSkipFrames = 2;

// ---- per-thread state -----------------------------------------------------

struct HeldLock {
  const void* m = nullptr;
  uint32_t site = 0;
  bool blocking = false;  ///< acquired via a wedging (unbounded) acquire
  void* bt[kMaxFrames];
  int bt_depth = 0;
};

/// Set when this thread's ThreadState is destroyed. Trivially destructible,
/// so it stays readable after the thread_local destructors have run.
thread_local bool t_state_gone = false;

struct ThreadState {
  std::vector<HeldLock> held;
  int blocking_ok_depth = 0;
  bool in_hook = false;  ///< reentrancy guard (hazard hooks inside lock hooks)
  ~ThreadState() { t_state_gone = true; }
};

/// This thread's state, or nullptr once it is destroyed: at process exit the
/// main thread's thread_locals go before the static destructors, and some of
/// those (the ThreadPool singleton joining its workers) still lock Mutexes.
ThreadState* tls() {
  if (t_state_gone) return nullptr;
  static thread_local ThreadState t;
  return &t;
}

uint64_t this_thread_id() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

int capture_stack(void** frames) { return ::backtrace(frames, kMaxFrames); }

std::string symbolize(void* const* frames, int depth) {
  std::string out;
  char** syms = ::backtrace_symbols(frames, depth);
  if (!syms) return out;
  for (int i = kSkipFrames; i < depth; ++i) {
    out += "      ";
    out += syms[i];
    out += '\n';
  }
  std::free(syms);
  return out;
}

// ---- global state ---------------------------------------------------------

struct EdgeInfo {
  uint32_t from = 0;
  uint32_t to = 0;
  uint64_t thread_id = 0;
  std::string holder_stack;
  std::string acquirer_stack;
};

/// All analyzer bookkeeping, behind ONE raw std::mutex: hooks fire while
/// arbitrary application Mutexes are held, so the analyzer must never
/// acquire an instrumented lock (std::mutex is invisible to the hooks and
/// to -Wthread-safety, which is the point). Leaked on purpose — hooks can
/// run from thread/static destructors after normal teardown.
struct Registry {
  std::mutex mu;
  std::vector<std::string> site_names;
  std::unordered_map<std::string, uint32_t> site_by_label;
  std::unordered_map<const void*, uint32_t> site_by_instance;
  uint64_t next_anon = 0;
  /// Acquisition-order edges, keyed from<<32|to; values own the sample
  /// stacks shown when the edge participates in a cycle.
  std::unordered_map<uint64_t, EdgeInfo> edges;
  /// Adjacency for cycle detection (site -> successor sites).
  std::vector<std::vector<uint32_t>> adj;
  /// Cycles reported so far, deduped by sorted site set.
  std::vector<LockCycle> cycles;
  std::unordered_set<std::string> cycle_keys;
  std::vector<BlockingHazard> hazards;
  std::unordered_set<std::string> hazard_keys;
};

Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

/// Site id for (instance, label). Labeled mutexes share one site per label
/// (the analysis is per program location); unlabeled instances each get a
/// generated site so unrelated anonymous locks can never alias into a
/// false cycle.
uint32_t site_id_locked(Registry& r, const void* m, const char* label) {
  auto it = r.site_by_instance.find(m);
  if (it != r.site_by_instance.end()) return it->second;
  uint32_t id;
  if (label && *label) {
    auto [lit, inserted] =
        r.site_by_label.emplace(label, static_cast<uint32_t>(r.site_names.size()));
    if (inserted) {
      r.site_names.emplace_back(label);
      r.adj.emplace_back();
    }
    id = lit->second;
  } else {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "unlabeled-mutex#%llu",
                  static_cast<unsigned long long>(r.next_anon++));
    id = static_cast<uint32_t>(r.site_names.size());
    r.site_names.emplace_back(buf);
    r.adj.emplace_back();
  }
  r.site_by_instance.emplace(m, id);
  return id;
}

/// DFS: is `to` connected back to `from` through existing edges? Fills
/// `path` with the site sequence to -> ... -> from when it is.
bool find_path_locked(const Registry& r, uint32_t to, uint32_t from,
                      std::vector<uint32_t>* path) {
  std::vector<uint8_t> seen(r.adj.size(), 0);
  std::vector<uint32_t> stack{to};
  std::vector<int32_t> parent(r.adj.size(), -1);
  seen[to] = 1;
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    if (v == from) {
      // Reconstruct to -> ... -> from.
      std::vector<uint32_t> rev;
      for (int32_t x = static_cast<int32_t>(from); x != -1; x = parent[x])
        rev.push_back(static_cast<uint32_t>(x));
      path->assign(rev.rbegin(), rev.rend());
      return true;
    }
    for (uint32_t w : r.adj[v]) {
      if (!seen[w]) {
        seen[w] = 1;
        parent[w] = static_cast<int32_t>(v);
        stack.push_back(w);
      }
    }
  }
  return false;
}

void record_cycle_locked(Registry& r, const std::vector<uint32_t>& sites) {
  // Dedup on the sorted site set: A->B->A and B->A->B are one finding.
  std::vector<uint32_t> sorted(sites);
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (uint32_t s : sorted) {
    key += std::to_string(s);
    key += ',';
  }
  if (!r.cycle_keys.insert(key).second) return;
  LockCycle cyc;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const uint32_t a = sites[i];
    const uint32_t b = sites[(i + 1) % sites.size()];
    auto it = r.edges.find((static_cast<uint64_t>(a) << 32) | b);
    CycleEdge e;
    e.from_site = r.site_names[a];
    e.to_site = r.site_names[b];
    if (it != r.edges.end()) {
      e.thread_id = it->second.thread_id;
      e.holder_stack = it->second.holder_stack;
      e.acquirer_stack = it->second.acquirer_stack;
    }
    cyc.edges.push_back(std::move(e));
  }
  std::fprintf(stderr, "%s", cyc.to_string().c_str());
  r.cycles.push_back(std::move(cyc));
}

void record_hazard_locked(Registry& r, const char* what,
                          const std::vector<HeldLock>& held,
                          const void* exclude, void* const* bt, int depth) {
  std::vector<std::string> sites;
  {
    for (const HeldLock& h : held) {
      if (h.m == exclude) continue;
      sites.push_back(r.site_names[h.site]);
    }
  }
  if (sites.empty()) return;
  std::string key = what;
  key += '|';
  key += sites.back();  // innermost held lock names the site
  if (!r.hazard_keys.insert(key).second) return;
  BlockingHazard hz;
  hz.what = what;
  hz.held_sites = std::move(sites);
  hz.stack = symbolize(bt, depth);
  std::fprintf(stderr, "%s", hz.to_string().c_str());
  r.hazards.push_back(std::move(hz));
}

void exit_check() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  if (r.cycles.empty() && r.hazards.empty()) {
    std::fprintf(stderr,
                 "stgraph-analyze: clean (%zu lock sites, %zu order edges, "
                 "0 cycles, 0 blocking hazards)\n",
                 r.site_names.size(), r.edges.size());
    return;
  }
  std::fprintf(stderr,
               "stgraph-analyze: FAILING the process — %zu lock-order "
               "cycle(s), %zu blocking hazard(s)\n",
               r.cycles.size(), r.hazards.size());
  // The findings were already printed when recorded; _exit keeps the
  // failure from being masked by destructors that run after us.
  std::_Exit(1);
}

/// Environment arming: one readout at static-init time, plus the atexit
/// enforcement hook that makes armed runs self-checking.
struct EnvArm {
  EnvArm() {
    if (env_flag("STGRAPH_DEADLOCK", false)) {
      detail::g_armed.store(true, std::memory_order_relaxed);
      std::atexit(&exit_check);
    }
  }
};
EnvArm g_env_arm;

}  // namespace

// ---- hooks ----------------------------------------------------------------

void on_lock_attempt(const void* m, const char* site) {
  ThreadState* ts = tls();
  if (!ts || ts->in_hook) return;
  ThreadState& t = *ts;
  t.in_hook = true;
  if (!t.held.empty()) {
    void* bt[kMaxFrames];
    const int depth = capture_stack(bt);
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    const uint32_t to = site_id_locked(r, m, site);
    for (const HeldLock& h : t.held) {
      const uint32_t from = h.site;
      if (from == to) {
        if (h.m == m) {
          // Relocking the exact instance this thread already holds: a
          // guaranteed self-deadlock on a non-recursive mutex.
          record_cycle_locked(r, {to});
        }
        // Same site, different instance: two objects of one class cannot
        // be ordered statically; skip rather than fabricate a self-cycle.
        continue;
      }
      const uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
      auto [it, inserted] = r.edges.emplace(key, EdgeInfo{});
      if (!inserted) continue;  // known order — steady state takes this path
      EdgeInfo& e = it->second;
      e.from = from;
      e.to = to;
      e.thread_id = this_thread_id();
      e.holder_stack = symbolize(h.bt, h.bt_depth);
      e.acquirer_stack = symbolize(bt, depth);
      r.adj[from].push_back(to);
      // New edge from->to: a cycle exists iff `from` was already reachable
      // from `to`.
      std::vector<uint32_t> path;
      if (find_path_locked(r, to, from, &path)) record_cycle_locked(r, path);
    }
  }
  t.in_hook = false;
}

void on_locked(const void* m, const char* site, bool blocking) {
  ThreadState* ts = tls();
  if (!ts || ts->in_hook) return;
  ThreadState& t = *ts;
  t.in_hook = true;
  HeldLock h;
  h.m = m;
  h.blocking = blocking;
  h.bt_depth = capture_stack(h.bt);
  {
    Registry& r = reg();
    std::lock_guard<std::mutex> lk(r.mu);
    h.site = site_id_locked(r, m, site);
  }
  t.held.push_back(h);
  t.in_hook = false;
}

void on_unlocked(const void* m) {
  ThreadState* ts = tls();
  if (!ts || ts->in_hook) return;
  ThreadState& t = *ts;
  // Innermost-first: lock scopes nest, so the match is almost always the
  // back. A miss (lock taken before arming) is silently fine.
  for (auto it = t.held.rbegin(); it != t.held.rend(); ++it) {
    if (it->m == m) {
      t.held.erase(std::next(it).base());
      return;
    }
  }
}

void on_mutex_destroyed(const void* m) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  r.site_by_instance.erase(m);
}

void on_cv_wait(const void* waited, const char* what) {
  ThreadState* ts = tls();
  if (!ts || ts->in_hook || ts->blocking_ok_depth > 0) return;
  ThreadState& t = *ts;
  if (t.held.size() < 2) return;  // only the waited lock (or nothing) held
  t.in_hook = true;
  void* bt[kMaxFrames];
  const int depth = capture_stack(bt);
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  record_hazard_locked(r, what, t.held, waited, bt, depth);
  t.in_hook = false;
}

void on_blocking_call(const char* what) {
  ThreadState* ts = tls();
  if (!ts || ts->in_hook || ts->blocking_ok_depth > 0 || ts->held.empty())
    return;
  ThreadState& t = *ts;
  t.in_hook = true;
  void* bt[kMaxFrames];
  const int depth = capture_stack(bt);
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  record_hazard_locked(r, what, t.held, /*exclude=*/nullptr, bt, depth);
  t.in_hook = false;
}

BlockingOkScope::BlockingOkScope(const char* /*reason*/) {
  if (ThreadState* t = tls()) ++t->blocking_ok_depth;
}

BlockingOkScope::~BlockingOkScope() {
  if (ThreadState* t = tls()) --t->blocking_ok_depth;
}

// ---- reporting ------------------------------------------------------------

std::string LockCycle::to_string() const {
  std::ostringstream os;
  os << "stgraph-analyze: LOCK-ORDER CYCLE (potential deadlock), "
     << edges.size() << " edge(s):\n";
  for (const CycleEdge& e : edges) {
    os << "  " << e.from_site << " -> " << e.to_site << "  [thread "
       << e.thread_id << "]\n";
    if (!e.holder_stack.empty())
      os << "    held " << e.from_site << " acquired at:\n" << e.holder_stack;
    if (!e.acquirer_stack.empty())
      os << "    while acquiring " << e.to_site << " at:\n"
         << e.acquirer_stack;
  }
  return os.str();
}

std::string BlockingHazard::to_string() const {
  std::ostringstream os;
  os << "stgraph-analyze: BLOCKING HAZARD: " << what
     << " while holding [";
  for (std::size_t i = 0; i < held_sites.size(); ++i)
    os << (i ? ", " : "") << held_sites[i];
  os << "] outside any STG_BLOCKING_OK scope\n";
  if (!stack.empty()) os << "    blocked at:\n" << stack;
  return os.str();
}

uint64_t cycle_count() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.cycles.size();
}

uint64_t hazard_count() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.hazards.size();
}

std::vector<LockCycle> cycles() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.cycles;
}

std::vector<BlockingHazard> hazards() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.hazards;
}

std::string format_report() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  std::ostringstream os;
  os << "stgraph-analyze: " << r.site_names.size() << " lock sites, "
     << r.edges.size() << " order edges, " << r.cycles.size()
     << " cycle(s), " << r.hazards.size() << " blocking hazard(s)\n";
  for (const LockCycle& c : r.cycles) os << c.to_string();
  for (const BlockingHazard& h : r.hazards) os << h.to_string();
  return os.str();
}

verify::Report as_report() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  verify::Report rep;
  // One "check" per recorded order edge / blocking site inspection: the
  // count distinguishes a clean armed run from a run that never armed.
  for (std::size_t i = 0; i < r.edges.size(); ++i) rep.note_check();
  for (const LockCycle& c : r.cycles)
    rep.fail("analyze.lock-order", c.to_string());
  for (const BlockingHazard& h : r.hazards)
    rep.fail("analyze.blocking-hazard", h.to_string());
  return rep;
}

void arm(bool on) { detail::g_armed.store(on, std::memory_order_relaxed); }

void reset() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lk(r.mu);
  // Keep the site tables: held-set entries on OTHER threads (a pool worker
  // parked in its cv wait, say) still carry site ids, and sites are stable
  // program locations anyway. Only the recorded orders and findings go.
  r.edges.clear();
  for (auto& succ : r.adj) succ.clear();
  r.cycles.clear();
  r.cycle_keys.clear();
  r.hazards.clear();
  r.hazard_keys.clear();
}

}  // namespace stgraph::analyze
