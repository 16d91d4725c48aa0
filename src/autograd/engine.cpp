#include "autograd/engine.hpp"

#include <atomic>
#include <map>
#include <unordered_map>

#include "runtime/parallel.hpp"
#include "util/check.hpp"

namespace stgraph::autograd {
namespace {
std::atomic<uint64_t> g_seq{0};
}

Node::Node(std::string name) : name_(std::move(name)), seq_(++g_seq) {}

uint64_t node_count() { return g_seq.load(); }

bool Node::add_input(const Tensor& t) {
  InputEdge e;
  if (t.defined() && t.impl()->grad_fn) {
    e.producer = t.impl()->grad_fn;
    e.needs_grad = true;
  } else if (t.defined() && t.impl()->requires_grad) {
    e.leaf = t.impl();
    e.needs_grad = true;
  }
  edges_.push_back(std::move(e));
  return edges_.back().needs_grad;
}

void Node::set_output(Tensor& out) {
  STG_CHECK(out.defined(), "set_output on undefined tensor");
  bool any = false;
  for (const auto& e : edges_) any = any || e.needs_grad;
  if (!any || !NoGradGuard::grad_enabled()) return;
  out.impl()->requires_grad = true;
  out.impl()->grad_fn = shared_from_this();
}

void accumulate_grad(const std::shared_ptr<TensorImpl>& impl,
                     const Tensor& src) {
  STG_CHECK(src.defined(), "accumulating undefined gradient");
  STG_CHECK(impl->shape == src.shape(), "gradient shape ",
            shape_str(src.shape()), " != tensor shape ", shape_str(impl->shape));
  const bool first = !impl->grad;
  if (first) impl->grad = std::make_shared<TensorImpl>(impl->shape);
  float* dst = impl->grad->data.data();
  const float* s = src.data();
  const std::size_t n = static_cast<std::size_t>(src.numel());
  device::parallel_for_ranges(n, [&](std::size_t b, std::size_t e) {
    if (first) {
      // The fresh buffer is unwritten. 0 + s stores exactly what a zero
      // fill followed by += would (a -0 contribution becomes +0).
      for (std::size_t i = b; i < e; ++i) dst[i] = 0.0f + s[i];
    } else {
      for (std::size_t i = b; i < e; ++i) dst[i] += s[i];
    }
  });
}

void run_backward(const Tensor& root, const Tensor& grad_output) {
  STG_CHECK(root.defined(), "backward on undefined tensor");
  STG_CHECK(same_shape(root, grad_output),
            "grad_output shape must match root shape");
  if (!root.impl()->grad_fn) {
    if (root.impl()->requires_grad) accumulate_grad(root.impl(), grad_output);
    return;
  }

  // Pending gradients per node, processed in strictly decreasing sequence
  // number. Since a node's inputs were created before the node itself,
  // decreasing-seq order is a valid reverse-topological order, and a node
  // is only visited once all gradient contributions to it have arrived.
  std::map<uint64_t, std::pair<std::shared_ptr<Node>, Tensor>> ready;

  // The first gradient to reach a node becomes its accumulator, and later
  // arrivals are added into it in place. A gradient is stolen as the
  // accumulator only when the engine holds its only handle; one that
  // anyone else can still see (the caller's seed, a tensor a VJP also
  // returned for another input or kept for itself) is cloned first, so
  // accumulation never mutates a tensor visible outside the engine.
  auto add_pending = [&](const std::shared_ptr<Node>& node, Tensor g) {
    auto it = ready.find(node->seq());
    if (it == ready.end()) {
      if (g.impl().use_count() != 1) g = g.clone();
      ready.emplace(node->seq(), std::make_pair(node, std::move(g)));
    } else {
      Tensor& acc = it->second.second;
      float* a = acc.data();
      const float* b = g.data();
      const std::size_t n = static_cast<std::size_t>(acc.numel());
      device::parallel_for_ranges(n, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] += b[i];
      });
    }
  };

  add_pending(root.impl()->grad_fn, grad_output);

  while (!ready.empty()) {
    auto it = std::prev(ready.end());
    std::shared_ptr<Node> node = std::move(it->second.first);
    Tensor grad = std::move(it->second.second);
    ready.erase(it);

    std::vector<Tensor> input_grads = node->backward(grad);
    // Drop the engine's handle, so a VJP that passes its grad_out through
    // (add, add_bias) hands over a uniquely held buffer.
    grad = Tensor();
    const auto& edges = node->edges();
    STG_CHECK(input_grads.size() == edges.size(), "node '", node->name(),
              "' returned ", input_grads.size(), " gradients for ",
              edges.size(), " inputs");
    for (size_t i = 0; i < edges.size(); ++i) {
      const InputEdge& e = edges[i];
      if (!e.needs_grad) continue;
      STG_CHECK(input_grads[i].defined(), "node '", node->name(),
                "' produced no gradient for differentiable input ", i);
      if (e.producer) {
        add_pending(e.producer, std::move(input_grads[i]));
      } else if (auto leaf = e.leaf.lock()) {
        accumulate_grad(leaf, input_grads[i]);
      }
    }
  }
}

}  // namespace stgraph::autograd
