// Direct kernel measurements for the traced run: GEMM at the workload's own
// shapes (GFLOP/s, FLOPs = 2mnk) and the GCN aggregation program on the
// workload's t=0 snapshot (GB/s, bytes computed from E, N and H — see
// README.md). Both call the library's public kernels, not the trainer.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "graph/stgraph_base.hpp"

namespace stgbench {

struct MicroRates {
  double gemm_fwd_gflops = 0;  ///< X[N,F] · W[F,H]
  double gemm_dx_gflops = 0;   ///< dY[N,H] · W[F,H]ᵀ
  double gemm_dw_gflops = 0;   ///< X[N,F]ᵀ · dY[N,H]
  double agg_fwd_gbps = 0;     ///< GCN aggregation over the in-neighbor view
  double agg_bwd_gbps = 0;     ///< its derivative over the out-neighbor view
};

/// Repositions `graph` (get_graph(0), then get_backward_graph(0)); call it
/// only once the graph's trainer or server is done with it.
MicroRates measure_kernels(stgraph::STGraphBase& graph, int64_t features,
                           int64_t hidden, uint64_t seed,
                           double seconds_per_kernel);

void set_kernel_metrics(Result& result, const MicroRates& r);

}  // namespace stgbench
