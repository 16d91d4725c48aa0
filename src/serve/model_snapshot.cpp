#include "serve/model_snapshot.hpp"

#include "util/failpoint.hpp"

namespace stgraph::serve {

ModelSnapshot ModelSnapshot::from_train_state(const io::TrainState& state) {
  ModelSnapshot snap;
  snap.params_.reserve(state.params.size());
  for (const nn::Parameter& p : state.params) {
    // clone() drops autograd history and shares nothing with the source —
    // the snapshot must stay frozen even if the producing trainer keeps
    // stepping the same tensors.
    snap.params_.push_back({p.name, p.tensor.clone()});
  }
  if (state.hidden.defined()) snap.hidden_ = state.hidden.clone();
  snap.config_hash_ = state.config_hash;
  snap.source_epoch_ = state.epoch;
  return snap;
}

ModelSnapshot ModelSnapshot::load(const std::string& path) {
  STG_FAILPOINT("serve.checkpoint.load",
                throw StgError("failpoint serve.checkpoint.load fired for " +
                               path));
  return from_train_state(io::load_train_state(path));
}

int64_t ModelSnapshot::parameter_count() const {
  int64_t n = 0;
  for (const nn::Parameter& p : params_) n += p.tensor.numel();
  return n;
}

void ModelSnapshot::install(nn::Module& model) const {
  auto live = model.parameters();
  io::restore_parameters(live, params_, "model snapshot");
}

}  // namespace stgraph::serve
