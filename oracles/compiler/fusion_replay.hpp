// The unfused replay of a fused elementwise region, the oracle the fused
// interpreter (src/compiler/fusion.cpp) is held to bit for bit: a FusedOp's
// optimized forward program evaluated node by node through the ops:: tape.
// Tests install it through the fusion::set_replay seam, for one scope
// (ReplayScope) or a whole binary (fusion_replay_environment.cpp).
#pragma once

#include <vector>

#include "compiler/fusion.hpp"

namespace stgraph::compiler::fusion {

/// Replay an optimized single-output program through the ops:: tape.
Tensor replay_unfused(const EwProgram& p, const std::vector<Tensor>& inputs);

/// Installs replay_unfused (`on`) or no replay (`!on`) through set_replay
/// for its lifetime, and restores the previous seam on exit. Scopes nest.
class ReplayScope {
 public:
  explicit ReplayScope(bool on = true) : prev_(replay()) {
    set_replay(on ? &replay_unfused : nullptr);
  }
  ~ReplayScope() { set_replay(prev_); }
  ReplayScope(const ReplayScope&) = delete;
  ReplayScope& operator=(const ReplayScope&) = delete;

 private:
  ReplayFn prev_;
};

}  // namespace stgraph::compiler::fusion
