// Batched SoA Monte-Carlo kernel throughput on the Fig. 11 yield
// reproduction (16-kb array, four sensing schemes per cell).
//
// The headline metric is the margin-solve kernel itself: trials/sec of
// the batched SoA solve vs the class-based per-cell oracle (which
// rebuilds heap-allocated scheme objects per cell), measured in-process
// on the same pre-sampled 16-kb population so the ratio is
// machine-independent.  End-to-end yield and tail throughput ride along,
// plus the batched Simmons Newton and the operating-point cache hit rate.
//
// The batched kernels dispatch on active_simd_isa(); this bench times
// every ISA the host supports (forced via set_simd_isa_override, bitwise
// gated against the oracle first; `scalar` is the kernels' W = 1
// instantiation) and reports >= 2x for the widest SIMD width over the
// scalar ISA on AVX2-class hardware as a wall-clock claim.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/cell/array.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"

using namespace sttram;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-N wall time of `body()`.
template <typename Body>
double best_of(int reps, Body&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

bool margins_equal(const std::array<SenseMargins, 4>& a,
                   const std::array<SenseMargins, 4>& b) {
  for (std::size_t s = 0; s < 4; ++s) {
    if (a[s].sm0.value() != b[s].sm0.value()) return false;
    if (a[s].sm1.value() != b[s].sm1.value()) return false;
  }
  return true;
}

}  // namespace

int main() {
  // Telemetry on for the op-cache hit/miss counters printed at the end.
  obs::set_metrics_enabled(true);
  bench::heading("MC kernels", "batched SoA margin kernels (16-kb Fig. 11)");

  // --- the Fig. 11 population (exactly what sim/yield samples) --------
  YieldConfig cfg;  // 128 x 128 = 16 kb
  const std::size_t cells = cfg.geometry.cell_count();
  const MtjParams nominal = MtjParams::paper_calibrated();
  const MtjVariationModel variation(nominal, cfg.variation);
  const MemoryArray array(cfg.geometry, variation, cfg.sigma_access,
                          cfg.seed);

  const double beta_d =
      cached_destructive_beta(nominal, Ohm(917.0), cfg.selfref);
  const double beta_n =
      cached_nondestructive_beta(nominal, Ohm(917.0), cfg.selfref);
  const Volt shared_v_ref =
      cached_shared_v_ref(nominal, Ohm(917.0), cfg.selfref.i_max);

  const Xoshiro256 column_master(cfg.seed ^ 0x5741524d5454536bULL);
  YieldKernelInputs inputs;
  inputs.selfref = cfg.selfref;
  inputs.i_droop_ref = nominal.i_droop_ref.value();
  inputs.beta_destructive = beta_d;
  inputs.beta_nondestructive = beta_n;
  inputs.shared_v_ref = shared_v_ref;
  inputs.col_vref_err.resize(cfg.geometry.cols);
  inputs.col_beta_dev.resize(cfg.geometry.cols);
  inputs.col_alpha_dev.resize(cfg.geometry.cols);
  inputs.col_ref_p.resize(cfg.geometry.cols);
  inputs.col_ref_ap.resize(cfg.geometry.cols);
  for (std::size_t c = 0; c < cfg.geometry.cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    inputs.col_beta_dev[c] = sample_normal(stream, 0.0, cfg.sigma_beta);
    inputs.col_alpha_dev[c] = sample_normal(stream, 0.0, cfg.sigma_alpha);
    inputs.col_vref_err[c] =
        sample_normal(stream, 0.0, cfg.sigma_vref.value());
    inputs.col_ref_p[c] = variation.sample(stream);
    inputs.col_ref_ap[c] = variation.sample(stream);
  }
  // Oracle: the class-based per-cell solve (fresh scheme objects per
  // cell), as tests/mc_oracle.cpp runs it.
  const auto scalar_cell = [&](std::size_t idx,
                               std::array<SenseMargins, 4>& m) {
    const std::size_t col = idx % cfg.geometry.cols;
    const ArrayCell& cell = array.cell(idx / cfg.geometry.cols, col);
    const LinearRiModel model(cell.params);
    const FixedAccessResistor access(cell.r_access);
    const ConventionalSensing conv(model, access, cfg.selfref.i_max);
    m[0] = conv.margins(shared_v_ref + Volt(inputs.col_vref_err[col]));
    const LinearRiModel ref_p(inputs.col_ref_p[col]);
    const LinearRiModel ref_ap(inputs.col_ref_ap[col]);
    const ReferenceCellSensing ref_cell(model, access, ref_p, ref_ap,
                                        cfg.selfref.i_max);
    m[1] = ref_cell.margins();
    SchemeMismatch mm;
    mm.beta_deviation = inputs.col_beta_dev[col];
    m[2] = DestructiveSelfReference(model, access, cfg.selfref)
               .margins(beta_d, mm);
    mm.alpha_deviation = inputs.col_alpha_dev[col];
    m[3] = NondestructiveSelfReference(model, access, cfg.selfref)
               .margins(beta_n, mm);
  };

  // Pre-sampled SoA blocks: the kernel timing below measures the solve,
  // not the sampling (sampling throughput is part of the end-to-end
  // yield number).
  const Xoshiro256 cell_master(cfg.seed);
  const std::size_t n_blocks = (cells + kMcBlockSize - 1) / kMcBlockSize;
  std::vector<VariationBlock> blocks(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t first = b * kMcBlockSize;
    sample_variation_block(cell_master, variation, 917.0, cfg.sigma_access,
                           first, std::min(cells - first, kMcBlockSize),
                           blocks[b]);
  }

  // Correctness gate before any timing: batched == oracle per cell, for
  // every margin-kernel ISA this host supports (forced one at a time via
  // set_simd_isa_override; each is timed only after it passes bitwise).
  std::vector<std::array<SenseMargins, 4>> scalar_m(cells);
  YieldMarginsSoA batched_m;
  batched_m.resize(cells);
  for (std::size_t idx = 0; idx < cells; ++idx) {
    scalar_cell(idx, scalar_m[idx]);
  }
  volatile double sink = 0.0;  // keep the solves observable
  const auto solve_all = [&](const YieldBatchKernel& k) {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    for (std::size_t b = 0; b < n_blocks; ++b) {
      k.solve(blocks[b], b * kMcBlockSize, &batched_m, &lo, &hi);
    }
    sink = lo + hi;
  };

  const SimdIsa active_isa = active_simd_isa();
  bool identical = true;
  double batched_s = 0.0;     // active-ISA solve time
  double scalar_isa_s = 0.0;  // forced-kScalar (W = 1) solve time
  std::printf("margin solve (4 schemes/cell, %zu cells):\n", cells);
  for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                      SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    set_simd_isa_override(isa);
    const YieldBatchKernel k = YieldBatchKernel::build(inputs);
    solve_all(k);
    bool isa_ok = true;
    for (std::size_t idx = 0; idx < cells; ++idx) {
      if (!margins_equal(scalar_m[idx], batched_m.cell(idx))) isa_ok = false;
    }
    identical = identical && isa_ok;
    const double s = best_of(20, [&] { solve_all(k); });
    if (isa == SimdIsa::kScalar) scalar_isa_s = s;
    if (isa == active_isa) batched_s = s;
    std::printf("  %-7s %8.2f ns/cell  (%.3g trials/sec)%s%s\n",
                simd_isa_name(isa), 1e9 * s / static_cast<double>(cells),
                static_cast<double>(cells) / s,
                isa == active_isa ? "  [active]" : "",
                isa_ok ? "" : "  MISMATCH vs oracle");
  }
  clear_simd_isa_override();

  // Heap-object oracle timing (the pre-batching per-cell path).
  const double scalar_s = best_of(5, [&] {
    std::array<SenseMargins, 4> m;
    double acc = 0.0;
    for (std::size_t idx = 0; idx < cells; ++idx) {
      scalar_cell(idx, m);
      acc += m[3].sm0.value();
    }
    sink = acc;
  });
  (void)sink;
  const double scalar_rate = static_cast<double>(cells) / scalar_s;
  const double speedup = scalar_s / batched_s;
  const double simd_speedup =
      batched_s > 0.0 ? scalar_isa_s / batched_s : 1.0;
  std::printf("  oracle  %8.2f ns/cell  (%.3g trials/sec)  "
              "[per-cell scheme objects]\n",
              1e9 * scalar_s / static_cast<double>(cells), scalar_rate);
  std::printf("  speedup  %7.1fx vs oracle, %.2fx vs the scalar ISA\n\n",
              speedup, simd_speedup);

  // --- end-to-end yield + tail ---------------------------------------
  YieldConfig e2e = cfg;
  e2e.max_scatter_points = 1;
  const auto y0 = std::chrono::steady_clock::now();
  const YieldResult yr = run_yield_experiment(e2e, nullptr);
  const double yield_s = seconds_since(y0);
  // The oracle's per-scheme failure counts over the same population.
  std::array<std::size_t, 4> oracle_failures{};
  for (const auto& m : scalar_m) {
    for (std::size_t s = 0; s < 4; ++s) {
      if (m[s].min() < cfg.required_margin) ++oracle_failures[s];
    }
  }
  bool e2e_identical = true;
  for (const SchemeRow& row : kSchemeTable) {
    e2e_identical = e2e_identical && yr.scheme(row.id).failures ==
                                         oracle_failures[scheme_index(row.id)];
  }
  std::printf("end-to-end yield: %.3f s (%.3g cells/sec)\n", yield_s,
              static_cast<double>(cells) / yield_s);

  TailConfig tail;
  const std::size_t tail_trials = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  const TailEstimate te = estimate_margin_tail(tail, 1, tail_trials);
  const double tail_s = seconds_since(t0);
  std::printf("tail sampling: %zu trials in %.3f s (%.3g trials/sec), "
              "P(fail)/bit = %.3e\n\n",
              tail_trials, tail_s,
              static_cast<double>(tail_trials) / tail_s,
              te.estimate.probability);

  // --- batched Simmons Newton ----------------------------------------
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(nominal);
  std::vector<double> currents(4096);
  for (std::size_t k = 0; k < currents.size(); ++k) {
    currents[k] = 1e-7 + 1.5e-8 * static_cast<double>(k);
  }
  std::vector<double> v_out(currents.size());
  const double simmons_s = best_of(5, [&] {
    simmons.bias_voltage_batch(MtjState::kAntiParallel, currents.data(),
                               currents.size(), v_out.data());
  });
  const double simmons_rate =
      static_cast<double>(currents.size()) / simmons_s;
  std::printf("Simmons Newton (batched): %.3g solves/sec\n\n",
              simmons_rate);

  // --- claims ---------------------------------------------------------
  std::printf("Claims:\n");
  bench::claim("batched margins bit-identical to the per-cell oracle "
               "(every supported ISA x 4 schemes x 16 kb)",
               identical);
  bench::claim("end-to-end yield failure counts equal the per-cell "
               "oracle's (4 schemes x 16 kb)",
               e2e_identical);
  bench::wall_clock_claim("margin-solve kernel >= 10x the per-cell oracle",
                          speedup >= 10.0);
  if (simd_isa_supported(SimdIsa::kAvx2)) {
    bench::wall_clock_claim(
        "SIMD margin kernel >= 2x the scalar ISA (AVX2-class host)",
        simd_speedup >= 2.0);
  }

  auto& registry = obs::Registry::instance();
  const std::uint64_t op_hits = registry.counter("mc.opcache.hits").value();
  const std::uint64_t op_misses =
      registry.counter("mc.opcache.misses").value();
  const double hit_rate =
      op_hits + op_misses > 0
          ? static_cast<double>(op_hits) /
                static_cast<double>(op_hits + op_misses)
          : 0.0;
  std::printf("\nop-cache: %llu hits / %llu misses (hit rate %.1f %%)\n",
              static_cast<unsigned long long>(op_hits),
              static_cast<unsigned long long>(op_misses), 100.0 * hit_rate);

  return bench::exit_code();
}
