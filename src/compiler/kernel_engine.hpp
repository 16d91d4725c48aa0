// Internal entry points of the specialized kernel engine (kernel_engine.cpp).
// run_kernel() validates arguments and picks one of these; they assume a
// compiled spec (spec.plans populated, term count within
// kMaxSpecializedTerms).
#pragma once

#include "compiler/kernel.hpp"

namespace stgraph::compiler::detail {

/// Engine instantiated against the native vector ISA (AVX2/NEON, or the
/// width-1 ops when the target has neither).
void run_engine_native(const KernelSpec& spec, const KernelArgs& args);

/// Engine instantiated against the width-1 scalar ops — the STGRAPH_SIMD=off
/// escape hatch. Same specialization grid and scheduling, no vector ISA.
void run_engine_scalar(const KernelSpec& spec, const KernelArgs& args);

}  // namespace stgraph::compiler::detail
