// Performance microbenchmarks (google-benchmark) of the library's hot
// kernels: margin evaluation, equal-margin optimization, Monte-Carlo
// cell sampling, MNA factorization and the full circuit-level read.
// For a developer's before/after on one host; the repo's performance
// record is e2ebench (e2ebench/README.md).
#include <benchmark/benchmark.h>

#include <limits>

#include "yield_kernel_inputs.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/spice/matrix.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/rng.hpp"

namespace {

using namespace sttram;

void BM_MarginEvaluation(benchmark::State& state) {
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  double beta = 2.13;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.margins(beta));
    beta += 1e-9;  // defeat value caching
  }
}
BENCHMARK(BM_MarginEvaluation);

void BM_OptimalBeta(benchmark::State& state) {
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.optimal_beta());
  }
}
BENCHMARK(BM_OptimalBeta);

void BM_DeltaRWindow(benchmark::State& state) {
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(delta_r_window(scheme, 2.13));
  }
}
BENCHMARK(BM_DeltaRWindow);

void BM_VariationSampling(benchmark::State& state) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams{});
  Xoshiro256 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.sample(rng));
  }
}
BENCHMARK(BM_VariationSampling);

void BM_YieldExperimentPerKbit(benchmark::State& state) {
  YieldConfig cfg;
  cfg.geometry = {32, 32};  // 1 kb
  cfg.max_scatter_points = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_yield_experiment(cfg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_YieldExperimentPerKbit);

void BM_LuFactorization(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  spice::Matrix a(n, n);
  Xoshiro256 rng(13);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.next_double();
    a(r, r) += static_cast<double>(n);  // diagonally dominant
  }
  spice::Matrix lu(n, n);
  std::vector<std::size_t> perm;
  for (auto _ : state) {
    lu = a;
    benchmark::DoNotOptimize(spice::lu_factor_in_place(lu, perm));
  }
}
// 7 and 8 are the orders of the destructive and nondestructive read
// circuits (the unrolled LU); 16 and 64 run the run-time-order body.
BENCHMARK(BM_LuFactorization)->Arg(7)->Arg(8)->Arg(16)->Arg(64);

void BM_SpiceNondestructiveRead(benchmark::State& state) {
  SpiceReadConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_nondestructive_read(cfg));
  }
}
BENCHMARK(BM_SpiceNondestructiveRead);

/// Batched four-scheme margin solve, one 64-lane block, forced to the
/// ISA in range(0) (skipped when the host can't run it).
void BM_BatchedMarginSolve(benchmark::State& state) {
  const SimdIsa isa = static_cast<SimdIsa>(state.range(0));
  if (!simd_isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  static const YieldKernelInputs inputs =
      bench::yield_kernel_inputs(YieldConfig{});
  set_simd_isa_override(isa);
  const YieldBatchKernel kernel = YieldBatchKernel::build(inputs);
  clear_simd_isa_override();
  YieldConfig cfg;
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    cfg.variation);
  VariationBlock block;
  sample_variation_block(Xoshiro256(1), variation, 917.0, cfg.sigma_access,
                         0, kMcBlockSize, block);
  YieldMarginsSoA out;
  out.resize(kMcBlockSize);
  for (auto _ : state) {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    kernel.solve(block, 0, &out, &lo, &hi);
    benchmark::DoNotOptimize(lo + hi);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMcBlockSize));
  state.SetLabel(simd_isa_name(isa));
}
BENCHMARK(BM_BatchedMarginSolve)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
