// STGRAPH_VALIDATE wiring: a process-wide switch that makes the graph
// formats and the trainer run the structural invariant analyzer
// (verify/invariants.hpp) after every mutation that could corrupt a view —
// GPMA view rebuilds, streaming appends, and each completed training
// sequence. Off (the default) the hooks cost one cached-bool branch; on,
// every violation surfaces as an StgError thrown AT the mutation that
// introduced it instead of as a wrong gradient three layers later.
//
//   STGRAPH_VALIDATE=1 ./build/tests/test_training
//   STGRAPH_VALIDATE=1 ctest --test-dir build
#pragma once

#include "verify/report.hpp"

namespace stgraph::verify {

/// True when STGRAPH_VALIDATE is set to a truthy value (anything but "",
/// "0", "false", "off"). The environment is read once and cached; the
/// off-path is a single branch on a bool.
bool validation_enabled();

/// Test override: force the switch regardless of the environment.
void set_validation_enabled(bool on);

/// Throw StgError with the report text if `r` holds violations. `where`
/// names the mutation site (e.g. "GpmaGraph::refresh_views(t=3)").
void require_ok(const Report& r, const std::string& where);

}  // namespace stgraph::verify
