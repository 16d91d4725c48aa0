#include "nn/module.hpp"

#include "util/check.hpp"

namespace stgraph::nn {

std::vector<Parameter> Module::parameters() const {
  std::vector<Parameter> out = own_params_;
  for (const auto& [name, child] : children_) {
    for (const Parameter& p : child->parameters()) {
      out.push_back({name + "." + p.name, p.tensor});
    }
  }
  return out;
}

void Module::zero_grad() {
  for (Parameter& p : const_cast<Module*>(this)->own_params_) p.tensor.zero_grad();
  for (auto& [name, child] : children_) child->zero_grad();
}

int64_t Module::parameter_count() const {
  int64_t n = 0;
  for (const Parameter& p : parameters()) n += p.tensor.numel();
  return n;
}

Tensor Module::register_parameter(const std::string& name, Tensor t) {
  STG_CHECK(t.defined(), "registering undefined parameter '", name, "'");
  t.set_requires_grad(true);
  own_params_.push_back({name, t});
  return t;
}

void Module::register_module(const std::string& name, Module* child) {
  STG_CHECK(child != nullptr, "registering null submodule '", name, "'");
  children_.emplace_back(name, child);
}

}  // namespace stgraph::nn
