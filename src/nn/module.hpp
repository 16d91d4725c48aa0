// Module base class — parameter registration and submodule traversal, the
// parameter half of the contract PyG-T layers rely on from torch.nn.Module.
// No layer behaves differently in training and inference, so there is no
// train/eval mode.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace stgraph::nn {

/// Named parameter handle.
struct Parameter {
  std::string name;
  Tensor tensor;
};

class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters, including those of registered submodules,
  /// with dotted names ("conv_z.linear.weight").
  std::vector<Parameter> parameters() const;

  /// Pre-order traversal of this module and every registered descendant,
  /// with dotted paths ("" for this module itself, "tgcn.conv_z" for a
  /// grandchild). Lets callers audit per-module state from the outside.
  std::vector<std::pair<std::string, const Module*>> named_modules() const;

  void zero_grad();
  /// Total parameter count (for model summaries).
  int64_t parameter_count() const;

 protected:
  /// Register a leaf parameter (the tensor must be a requires-grad leaf).
  Tensor register_parameter(const std::string& name, Tensor t);
  /// Register a child module for recursive parameter collection.
  void register_module(const std::string& name, Module* child);

 private:
  std::vector<Parameter> own_params_;
  std::vector<std::pair<std::string, Module*>> children_;
};

}  // namespace stgraph::nn
