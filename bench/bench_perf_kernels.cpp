// Performance microbenchmarks (google-benchmark) of the library's hot
// kernels: margin evaluation, equal-margin optimization, Monte-Carlo
// cell sampling, MNA factorization and the full circuit-level read.
// For a developer's before/after on one host; the repo's performance
// record is e2ebench (e2ebench/README.md).
#include <benchmark/benchmark.h>

#include <limits>

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
#include "sttram/stats/distributions.hpp"
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

/// Kernel inputs of the Fig. 11 yield population (what bench_mc builds),
/// shared by the per-ISA margin-solve micro timings below.
YieldKernelInputs make_yield_kernel_inputs() {
  YieldConfig cfg;
  const MtjParams nominal = MtjParams::paper_calibrated();
  const MtjVariationModel variation(nominal, cfg.variation);
  YieldKernelInputs in;
  in.selfref = cfg.selfref;
  in.i_droop_ref = nominal.i_droop_ref.value();
  in.beta_destructive =
      cached_destructive_beta(nominal, Ohm(917.0), cfg.selfref);
  in.beta_nondestructive =
      cached_nondestructive_beta(nominal, Ohm(917.0), cfg.selfref);
  in.shared_v_ref = cached_shared_v_ref(nominal, Ohm(917.0),
                                        cfg.selfref.i_max);
  const Xoshiro256 column_master(cfg.seed ^ 0x5741524d5454536bULL);
  const std::size_t cols = cfg.geometry.cols;
  in.col_vref_err.resize(cols);
  in.col_beta_dev.resize(cols);
  in.col_alpha_dev.resize(cols);
  in.col_ref_p.resize(cols);
  in.col_ref_ap.resize(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    in.col_beta_dev[c] = sample_normal(stream, 0.0, cfg.sigma_beta);
    in.col_alpha_dev[c] = sample_normal(stream, 0.0, cfg.sigma_alpha);
    in.col_vref_err[c] = sample_normal(stream, 0.0, cfg.sigma_vref.value());
    in.col_ref_p[c] = variation.sample(stream);
    in.col_ref_ap[c] = variation.sample(stream);
  }
  return in;
}

/// Batched four-scheme margin solve, one 64-lane block, forced to the
/// ISA in range(0) (skipped when the host can't run it).
void BM_BatchedMarginSolve(benchmark::State& state) {
  const SimdIsa isa = static_cast<SimdIsa>(state.range(0));
  if (!simd_isa_supported(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  static const YieldKernelInputs inputs = make_yield_kernel_inputs();
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
