// Training schedule utilities: learning-rate schedulers over the
// Optimizer interface and patience-based early stopping — the harness
// pieces a released training framework ships next to its optimizers.
#pragma once

#include <cstdint>
#include <limits>

#include "nn/optim.hpp"

namespace stgraph::nn {

/// Multiply the learning rate by `gamma` every `step_size` epochs
/// (torch.optim.lr_scheduler.StepLR).
class StepLR {
 public:
  StepLR(Optimizer& optimizer, uint32_t step_size, float gamma = 0.1f);

  /// Advance one epoch; applies the decay when the boundary is crossed.
  void step();
  uint32_t epoch() const { return epoch_; }

 private:
  Optimizer& optimizer_;
  uint32_t step_size_;
  float gamma_;
  float lr_;
  uint32_t epoch_ = 0;
};

/// Stop when the monitored loss has not improved by at least `min_delta`
/// for `patience` consecutive epochs.
class EarlyStopping {
 public:
  explicit EarlyStopping(uint32_t patience, double min_delta = 0.0);

  /// Feed one epoch's validation loss; returns true when training should
  /// stop. The best value seen so far is retained.
  bool update(double loss);

  bool should_stop() const { return stopped_; }
  double best() const { return best_; }

 private:
  uint32_t patience_;
  double min_delta_;
  double best_ = std::numeric_limits<double>::infinity();
  uint32_t stale_ = 0;
  bool stopped_ = false;
};

}  // namespace stgraph::nn
