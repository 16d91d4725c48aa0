// Frozen model state for the serving runtime (src/serve/, docs/serving.md).
//
// A ModelSnapshot is a deep, detached copy of everything inference needs
// from an STGT training checkpoint: the parameter tensors (with their
// dotted names) and the carried hidden state. Instances are immutable
// after construction and shared as shared_ptr<const ModelSnapshot>, so any
// thread may hold one without locking — the server swaps the active model
// by publishing a new pointer and copying it into the live module between
// micro-batches (the "atomically-swappable handle" of the serving design).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/train_state.hpp"
#include "nn/module.hpp"

namespace stgraph::serve {

class ModelSnapshot {
 public:
  /// Deep-copy the inference-relevant fields out of a loaded train state
  /// (optimizer moments, RNG and cursors are dropped — serving never
  /// needs them).
  static ModelSnapshot from_train_state(const io::TrainState& state);

  /// io::load_train_state + from_train_state. Throws StgError on a torn,
  /// truncated or corrupted checkpoint, exactly like resume() does.
  static ModelSnapshot load(const std::string& path);

  /// Frozen parameters, dotted names, Module::parameters() order.
  const std::vector<nn::Parameter>& params() const { return params_; }
  /// Hidden state carried at the checkpoint boundary (may be undefined).
  const Tensor& hidden() const { return hidden_; }
  /// TrainConfig hash of the producing run (identity check for operators).
  uint64_t config_hash() const { return config_hash_; }
  /// Epoch the producing run was inside when the state was captured.
  uint32_t source_epoch() const { return source_epoch_; }
  int64_t parameter_count() const;

  /// Copy the frozen parameters into a live model (strict positional
  /// name + shape match via io::restore_parameters).
  void install(nn::Module& model) const;

 private:
  std::vector<nn::Parameter> params_;
  Tensor hidden_;
  uint64_t config_hash_ = 0;
  uint32_t source_epoch_ = 0;
};

}  // namespace stgraph::serve
