// Micro benches for the tensor/runtime substrate: GEMM, elementwise
// chains, prefix scans and radix sort — the primitives whose throughput
// bounds everything the figure benches measure.
#include <benchmark/benchmark.h>

#include "runtime/scan.hpp"
#include "runtime/sort.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {
using namespace stgraph;

void BM_Gemm(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  NoGradGuard ng;
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // flops
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransposed(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  NoGradGuard ng;
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b, /*trans_a=*/true, /*trans_b=*/false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);  // flops
}
BENCHMARK(BM_GemmTransposed)->Arg(128);

// The products a TGCN/GConvGRU cell runs per timestep, at the node counts
// of the benchmark datasets: X[N,F]·W[F,H] forward (NN), dY[N,H]·W[F,H]ᵀ
// for the input gradient (NT) and X[N,F]ᵀ·dY[N,H] for the weight gradient
// (TN). items_per_second is GFLOP/s × 1e9.
enum GemmCase : int64_t { kNN, kNT, kTN };

void BM_GemmCell(benchmark::State& state) {
  const int64_t n = state.range(0), f = state.range(1), h = state.range(2);
  const auto kind = static_cast<GemmCase>(state.range(3));
  Rng rng(5);
  NoGradGuard ng;
  Tensor a, b;
  bool ta = false, tb = false;
  switch (kind) {
    case kNN:
      a = Tensor::randn({n, f}, rng);
      b = Tensor::randn({f, h}, rng);
      break;
    case kNT:
      a = Tensor::randn({n, h}, rng);
      b = Tensor::randn({f, h}, rng);
      tb = true;
      break;
    case kTN:
      a = Tensor::randn({n, f}, rng);
      b = Tensor::randn({n, h}, rng);
      ta = true;
      break;
  }
  for (auto _ : state) {
    Tensor c = ops::matmul(a, b, ta, tb);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * f * h);  // flops
  state.SetLabel(kind == kNN ? "NN" : kind == kNT ? "NT" : "TN");
}
BENCHMARK(BM_GemmCell)
    ->ArgNames({"N", "F", "H", "case"})
    ->ArgsProduct({{1068, 3880}, {8, 16, 64}, {8, 32}, {kNN, kNT, kTN}});

void BM_GruGateChain(benchmark::State& state) {
  // The elementwise chain a TGCN gate performs per timestep.
  const int64_t n = state.range(0);
  Rng rng(3);
  NoGradGuard ng;
  Tensor x = Tensor::randn({n, 32}, rng);
  Tensor h = Tensor::randn({n, 32}, rng);
  for (auto _ : state) {
    Tensor z = ops::sigmoid(ops::add(x, h));
    Tensor out = ops::add(ops::mul(z, h),
                          ops::mul(ops::one_minus(z), ops::tanh_op(x)));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n * 32);
}
BENCHMARK(BM_GruGateChain)->Arg(1000)->Arg(100000);

void BM_InclusiveScan(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  std::vector<uint64_t> in(n), out(n);
  for (auto& v : in) v = rng.next_below(100);
  for (auto _ : state) {
    device::inclusive_scan(in.data(), out.data(), n);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InclusiveScan)->Arg(1 << 14)->Arg(1 << 20);

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<uint64_t> base(n);
  for (auto& v : base) v = rng.next_u64() >> 24;  // 40-bit edge-ish keys
  for (auto _ : state) {
    std::vector<uint64_t> keys = base;
    device::radix_sort(keys);
    benchmark::DoNotOptimize(keys.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RadixSort)->Arg(1 << 14)->Arg(1 << 18);

void BM_AutogradOverhead(benchmark::State& state) {
  // Same gate chain with taping + backward: the bookkeeping the paper's
  // training loop pays per timestep.
  const int64_t n = 10000;
  Rng rng(6);
  Tensor x = Tensor::randn({n, 16}, rng, 1.0f, /*requires_grad=*/true);
  Tensor h = Tensor::randn({n, 16}, rng);
  for (auto _ : state) {
    Tensor z = ops::sigmoid(ops::add(x, h));
    Tensor loss = ops::sum(ops::mul(z, h));
    loss.backward();
    x.zero_grad();
    benchmark::DoNotOptimize(loss.item());
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_AutogradOverhead);

}  // namespace

BENCHMARK_MAIN();
