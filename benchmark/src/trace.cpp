#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <mutex>

#include "common.hpp"

namespace stgbench::trace {
namespace {

std::atomic<bool> g_armed{false};

struct Event {
  const char* name = "";  // string literal
  int64_t begin_ns = 0;   // steady clock
  int64_t end_ns = 0;
  uint64_t id = 0;        // request id, 0 when none
  uint32_t tid = 0;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<Event> events;
};

// Buffers are owned here, not by their threads, so spans of a thread that
// has already exited (server readers, the load generator) survive until
// collect().
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (!buf) {
    std::lock_guard<std::mutex> lk(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = g_buffers.back().get();
    buf->tid = static_cast<uint32_t>(g_buffers.size());
    buf->events.reserve(4096);
  }
  return *buf;
}

std::vector<Event> collect() {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<Event> all;
  for (const auto& b : g_buffers)
    all.insert(all.end(), b->events.begin(), b->events.end());
  std::sort(all.begin(), all.end(), [](const Event& a, const Event& b) {
    return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                    : a.end_ns > b.end_ns;
  });
  return all;
}

}  // namespace

void arm(bool on) { g_armed.store(on, std::memory_order_release); }

void record(const char* name, int64_t begin_ns, int64_t end_ns, uint64_t id) {
  if (!g_armed.load(std::memory_order_acquire)) return;
  ThreadBuffer& b = local_buffer();
  b.events.push_back({name, begin_ns, end_ns, id, b.tid});
}

Span::Span(const char* name) : name_(name), begin_(now_ns()) {}

Span::~Span() { record(name_, begin_, now_ns()); }

bool write_chrome_json(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  const std::vector<Event> events = collect();
  std::ofstream f(path);
  if (!f) return false;
  const int64_t origin = events.empty() ? 0 : events.front().begin_ns;
  f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {";
  for (std::size_t i = 0; i < meta.size(); ++i)
    f << (i ? ", " : "") << '"' << json_escape(meta[i].first) << "\": \""
      << json_escape(meta[i].second) << '"';
  f << "},\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    f << (i ? ",\n" : "") << "{\"name\": \"" << e.name
      << "\", \"cat\": \"stgbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
      << e.tid << ", \"ts\": "
      << json_number(static_cast<double>(e.begin_ns - origin) / 1e3)
      << ", \"dur\": "
      << json_number(static_cast<double>(e.end_ns - e.begin_ns) / 1e3);
    if (e.id) f << ", \"args\": {\"request_id\": " << e.id << "}";
    f << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ---- decorators ----------------------------------------------------------------

stgraph::SnapshotView TracedGraph::get_graph(uint32_t t) {
  const int64_t t0 = now_ns();
  stgraph::SnapshotView v = inner_.get_graph(t);
  const int64_t t1 = now_ns();
  in_backward_.store(false, std::memory_order_relaxed);
  get_graph_stat.add(t1 - t0);
  record("gpma.get_graph", t0, t1);
  return v;
}

stgraph::SnapshotView TracedGraph::get_backward_graph(uint32_t t) {
  const int64_t t0 = now_ns();
  stgraph::SnapshotView v = inner_.get_backward_graph(t);
  const int64_t t1 = now_ns();
  in_backward_.store(true, std::memory_order_relaxed);
  get_backward_stat.add(t1 - t0);
  record("gpma.get_backward_graph", t0, t1);
  return v;
}

void TracedGraph::prefetch(uint32_t t) {
  const int64_t t0 = now_ns();
  inner_.prefetch(t);
  const int64_t t1 = now_ns();
  prefetch_stat.add(t1 - t0);
  if (in_backward_.load(std::memory_order_relaxed))
    prefetch_bwd_stat.add(t1 - t0);
  record("gpma.prefetch", t0, t1);
}

void TracedGraph::append_delta(const stgraph::EdgeDelta& delta) {
  const int64_t t0 = now_ns();
  inner_.append_delta(delta);
  const int64_t t1 = now_ns();
  append_stat.add(t1 - t0);
  record("gpma.append_delta", t0, t1);
}

TracedModel::TracedModel(stgraph::nn::TemporalModel& inner,
                         const TracedGraph* graph)
    : inner_(inner), graph_(graph) {
  register_module("inner", &inner);
}

void TracedModel::end_sequence() {
  if (loss_pending_) ops_fwd_loss = add(ops_fwd_loss, last_gap_);
  loss_pending_ = false;
}

std::pair<stgraph::Tensor, stgraph::Tensor> TracedModel::step(
    stgraph::core::TemporalExecutor& exec, const stgraph::Tensor& x,
    const stgraph::Tensor& h, const float* edge_weights) {
  // Serving readers may step concurrently and only use step_stat; the op
  // accounting below is for the single training loop.
  const bool training = graph_ != nullptr;
  stgraph::ops::OpProfile p0;
  if (training) {
    p0 = stgraph::ops::profile_snapshot();
    if (loss_pending_ &&
        graph_->get_backward_stat.calls.load() == backward_calls_at_end_) {
      // No backward pass since the last step: same sequence, and the gap
      // held exactly that step's loss.
      last_gap_ = p0 - step_end_;
      ops_fwd_loss = add(ops_fwd_loss, last_gap_);
      loss_pending_ = false;
    }
    end_sequence();
  }
  const int64_t t0 = now_ns();
  auto out = inner_.step(exec, x, h, edge_weights);
  const int64_t t1 = now_ns();
  if (training) {
    const stgraph::ops::OpProfile p1 = stgraph::ops::profile_snapshot();
    ops_in_step = add(ops_in_step, p1 - p0);
    step_end_ = p1;
    backward_calls_at_end_ = graph_->get_backward_stat.calls.load();
    loss_pending_ = true;
  }
  step_stat.add(t1 - t0);
  record("nn.step", t0, t1);
  return out;
}

stgraph::ops::OpProfile add(const stgraph::ops::OpProfile& a,
                            const stgraph::ops::OpProfile& b) {
  stgraph::ops::OpProfile s;
  for (int i = 0; i < stgraph::ops::kOpClassCount; ++i) {
    s.count[i] = a.count[i] + b.count[i];
    s.bytes[i] = a.bytes[i] + b.bytes[i];
    s.nanos[i] = a.nanos[i] + b.nanos[i];
  }
  return s;
}

double op_seconds(const stgraph::ops::OpProfile& p, stgraph::ops::OpClass c) {
  return static_cast<double>(p.nanos[static_cast<int>(c)]) * 1e-9;
}

double timed_op_seconds(const stgraph::ops::OpProfile& p) {
  double s = 0;
  for (int i = 0; i < stgraph::ops::kOpClassCount; ++i)
    s += static_cast<double>(p.nanos[i]) * 1e-9;
  return s;
}

}  // namespace stgbench::trace
