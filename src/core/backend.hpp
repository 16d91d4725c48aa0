// STGraph Backend Interface (paper §VI-1): the single seam through which
// the framework touches tensor-backend functionality. Seastar reused
// DGL-Hack's backend interface, scattering the framework across two
// libraries and pinning it to one CUDA version; STGraph instead owns a
// dedicated interface and decouples concrete backends behind a factory.
//
// The native backend wraps this repository's tensor library and device
// runtime. The factory registry allows alternative backends (the paper
// mentions TensorFlow/MXNet as future work) to be plugged in without
// touching framework code; tests register a mock backend the same way.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/kernel.hpp"
#include "tensor/tensor.hpp"

namespace stgraph::core {

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string name() const = 0;
  /// Human-readable device description for bench/report output (the CUDA
  /// analogue would name the GPU; the native backend reports the SIMD ISA
  /// its kernel engine was compiled for and the lane count in use).
  virtual std::string device_info() const { return name(); }

  // ---- tensor factory ----------------------------------------------------
  virtual Tensor tensor_from_host(const std::vector<float>& values,
                                  Shape shape) const = 0;
  virtual Tensor zeros(Shape shape) const = 0;

  // ---- kernel launches ---------------------------------------------------
  /// Launch a compiled aggregation kernel (forward or backward direction is
  /// encoded in `args`).
  virtual void launch_aggregation(const compiler::KernelSpec& spec,
                                  const compiler::KernelArgs& args) const = 0;
};

/// Factory registry (Factory Class Design Pattern per the paper).
class BackendRegistry {
 public:
  using FactoryFn = std::function<std::unique_ptr<Backend>()>;

  static BackendRegistry& instance();

  void register_backend(const std::string& name, FactoryFn factory);
  std::unique_ptr<Backend> create(const std::string& name) const;
  std::vector<std::string> available() const;

 private:
  BackendRegistry();
  std::vector<std::pair<std::string, FactoryFn>> factories_;
};

/// The process-default backend ("native"), shared by layers that are not
/// given an explicit one.
Backend& native_backend();

}  // namespace stgraph::core
