// Dense float32 tensor with reverse-mode autograd hooks — the backend the
// STGraph executor drives through the BackendInterface.
//
// Deliberately minimal compared to a full deep-learning framework: tensors
// are always contiguous row-major, float32, rank 1 or 2 (TGNN training
// only needs [N, F] node-feature matrices, [F_in, F_out] weights and
// scalars). Storage bytes are charged to the device MemoryTracker under
// MemCategory::kTensor, which is what the paper's memory figures measure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/device_buffer.hpp"

namespace stgraph {

class Rng;

namespace autograd {
class Node;
}

/// Tensor shape: rank 0 (scalar), 1 or 2.
using Shape = std::vector<int64_t>;

struct TensorImpl {
  explicit TensorImpl(Shape shape_in, MemCategory cat = MemCategory::kTensor);

  Shape shape;
  DeviceBuffer<float> data;
  bool requires_grad = false;
  /// Accumulated gradient (lazily allocated, same shape).
  std::shared_ptr<TensorImpl> grad;
  /// Autograd node that produced this tensor (null for leaves).
  std::shared_ptr<autograd::Node> grad_fn;

  int64_t numel() const;
};

/// Value-semantics handle to a shared TensorImpl (like torch.Tensor).
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- construction -------------------------------------------------
  /// Storage of the given shape with unspecified contents (nothing is
  /// written, as with torch.empty); the caller writes every element.
  static Tensor empty(Shape shape, bool requires_grad = false);
  /// The one zeroing constructor: empty() plus a single fill.
  static Tensor zeros(Shape shape, bool requires_grad = false);
  static Tensor ones(Shape shape, bool requires_grad = false);
  static Tensor full(Shape shape, float value, bool requires_grad = false);
  static Tensor from_vector(const std::vector<float>& values, Shape shape,
                            bool requires_grad = false);
  /// Normal(0, stddev) initialization (Glorot etc. built on top).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);
  static Tensor uniform(Shape shape, Rng& rng, float lo, float hi,
                        bool requires_grad = false);

  // ---- metadata ------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim() const;
  int64_t size(int64_t d) const;
  int64_t numel() const;
  /// Rows/cols of a rank-2 tensor (rank-1 treated as [1, n]).
  int64_t rows() const;
  int64_t cols() const;

  // ---- data access ---------------------------------------------------
  float* data();
  const float* data() const;
  float item() const;                 // rank-0/1-element only
  float at(int64_t i) const;          // flat index
  float at(int64_t r, int64_t c) const;
  std::vector<float> to_vector() const;

  // ---- autograd ------------------------------------------------------
  bool requires_grad() const;
  Tensor& set_requires_grad(bool v);
  /// Gradient tensor (undefined handle if no grad accumulated yet).
  Tensor grad() const;
  void zero_grad();
  /// Run reverse-mode AD from this scalar (or with an explicit seed).
  void backward() const;
  void backward(const Tensor& grad_output) const;
  /// A copy of the data with no autograd history (it shares no storage:
  /// the same as clone()).
  Tensor detach() const;
  /// Deep copy (no autograd history).
  Tensor clone() const;

  std::shared_ptr<TensorImpl>& impl() { return impl_; }
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  std::string to_string(int64_t max_elems = 16) const;

 private:
  std::shared_ptr<TensorImpl> impl_;
};

/// While alive, newly created ops do not record autograd history
/// (optimizer updates, evaluation passes).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;
  static bool grad_enabled();

 private:
  bool prev_;
};

/// Shape equality helper with readable failure text.
bool same_shape(const Tensor& a, const Tensor& b);
std::string shape_str(const Shape& s);

}  // namespace stgraph
