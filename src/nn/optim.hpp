// Optimizers over Module parameter lists: SGD (+momentum) and Adam (the
// paper's training harness uses Adam, PyTorch defaults).
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace stgraph::nn {

class Optimizer {
 public:
  Optimizer(std::vector<Parameter> params, float lr)
      : params_(std::move(params)), lr_(lr) {}
  virtual ~Optimizer() = default;
  virtual void step() = 0;
  void zero_grad();

  /// Current learning rate (the trainer restores it on resume and halves
  /// it after repeated non-finite steps).
  float learning_rate() const { return lr_; }
  void set_learning_rate(float lr) { lr_ = lr; }

  /// The parameter list this optimizer updates (checkpointing, guards).
  const std::vector<Parameter>& params() const { return params_; }

 protected:
  std::vector<Parameter> params_;
  float lr_;
};

/// Global-norm gradient clipping (torch.nn.utils.clip_grad_norm_): if the
/// L2 norm over ALL gradients exceeds `max_norm`, every gradient is scaled
/// by max_norm / norm in place; below the threshold nothing is touched.
/// Parameters without an accumulated gradient are skipped. Returns the
/// pre-clip global norm.
float clip_grad_norm(const std::vector<Parameter>& params, float max_norm);

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Parameter> params, float lr, float momentum = 0.0f);
  void step() override;

 private:
  float momentum_;
  std::vector<Tensor> velocity_;
};

class Adam final : public Optimizer {
 public:
  Adam(std::vector<Parameter> params, float lr = 1e-2f, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;

  // ---- checkpointable state (io::TrainState) ------------------------------
  /// Bias-correction step counter t.
  int64_t step_count() const { return t_; }
  void set_step_count(int64_t t) { t_ = t; }
  /// First/second moment tensors, aligned with params() order.
  const std::vector<Tensor>& moment1() const { return m_; }
  const std::vector<Tensor>& moment2() const { return v_; }
  /// Overwrite the moment buffers (resume); shapes must match.
  void restore_moments(const std::vector<Tensor>& m,
                       const std::vector<Tensor>& v);

 private:
  float beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

}  // namespace stgraph::nn
