// Links into a test binary to run all of its tests with every fused region
// replayed node by node (fusion_replay.hpp). The training_fusion_off ctest
// entry is test_training built with this file: the whole end-to-end
// training suite must pass, unchanged, on the unfused tape.
#include <gtest/gtest.h>

#include <optional>

#include "compiler/fusion_replay.hpp"

namespace {

struct FusionReplayEnvironment : ::testing::Environment {
  std::optional<stgraph::compiler::fusion::ReplayScope> scope;
  void SetUp() override { scope.emplace(); }
  void TearDown() override { scope.reset(); }
};

// Registered during static initialisation, before gtest_main runs the
// tests; gtest owns the environment.
[[maybe_unused]] ::testing::Environment* const kEnvironment =
    ::testing::AddGlobalTestEnvironment(new FusionReplayEnvironment);

}  // namespace
