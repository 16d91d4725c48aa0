// The interpreted aggregation kernel: per-edge coefficient re-evaluation,
// scalar feature loops and the original work shaping. test_kernel_simd
// holds the engine (src/compiler/kernel_engine.cpp) to it bit for bit, and
// bench_micro_kernels uses it as the ablation baseline.
#pragma once

#include "compiler/kernel.hpp"

namespace stgraph::compiler {

/// Same contract and bits as run_kernel: coefficient products in compile()'s
/// canonical order, accumulated with an unfused multiply-then-add.
void run_kernel_reference(const KernelSpec& spec, const KernelArgs& args);

}  // namespace stgraph::compiler
