#include "core/backend.hpp"

#include "runtime/parallel.hpp"
#include "runtime/simd.hpp"
#include "util/check.hpp"

namespace stgraph::core {
namespace {

class NativeBackend final : public Backend {
 public:
  std::string name() const override { return "native"; }

  std::string device_info() const override {
    return "native cpu, simd=" + std::string(simd::arch_name()) +
           ", lanes=" + std::to_string(device::lane_count());
  }

  Tensor tensor_from_host(const std::vector<float>& values,
                          Shape shape) const override {
    return Tensor::from_vector(values, std::move(shape));
  }

  Tensor zeros(Shape shape) const override {
    return Tensor::zeros(std::move(shape));
  }

  void launch_aggregation(const compiler::KernelSpec& spec,
                          const compiler::KernelArgs& args) const override {
    compiler::run_kernel(spec, args);
  }
};

}  // namespace

BackendRegistry::BackendRegistry() {
  register_backend("native", [] { return std::make_unique<NativeBackend>(); });
}

BackendRegistry& BackendRegistry::instance() {
  static BackendRegistry registry;
  return registry;
}

void BackendRegistry::register_backend(const std::string& name,
                                       FactoryFn factory) {
  for (auto& [n, f] : factories_) {
    if (n == name) {
      f = std::move(factory);  // re-registration replaces (tests)
      return;
    }
  }
  factories_.emplace_back(name, std::move(factory));
}

std::unique_ptr<Backend> BackendRegistry::create(const std::string& name) const {
  for (const auto& [n, f] : factories_) {
    if (n == name) return f();
  }
  STG_CHECK(false, "unknown backend '", name, "'");
  return nullptr;
}

std::vector<std::string> BackendRegistry::available() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [n, f] : factories_) names.push_back(n);
  return names;
}

Backend& native_backend() {
  static std::unique_ptr<Backend> backend =
      BackendRegistry::instance().create("native");
  return *backend;
}

}  // namespace stgraph::core
