// Batched SoA Monte-Carlo kernels vs the class-based per-cell oracle
// (mc_oracle.hpp): the differential bit-identity proof behind the yield,
// tail, Gaussian-fill and Simmons kernels for every SIMD ISA (DESIGN.md
// §14-§15), plus the operating-point cache's correctness contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "mc_oracle.hpp"
#include "sttram/cell/array.hpp"
#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/op_cache.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/importance.hpp"

namespace sttram {
namespace {

using engine::ThreadPool;

// ------------------------------------------------------- exact equality

void expect_scheme_equal(const SchemeYield& a, const SchemeYield& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.sm0_stats.count(), b.sm0_stats.count());
  EXPECT_EQ(a.sm0_stats.mean(), b.sm0_stats.mean());
  EXPECT_EQ(a.sm0_stats.variance(), b.sm0_stats.variance());
  EXPECT_EQ(a.sm0_stats.min(), b.sm0_stats.min());
  EXPECT_EQ(a.sm0_stats.max(), b.sm0_stats.max());
  EXPECT_EQ(a.sm1_stats.mean(), b.sm1_stats.mean());
  EXPECT_EQ(a.sm1_stats.variance(), b.sm1_stats.variance());
  EXPECT_EQ(a.sm1_stats.min(), b.sm1_stats.min());
  EXPECT_EQ(a.sm1_stats.max(), b.sm1_stats.max());
  ASSERT_EQ(a.scatter.size(), b.scatter.size());
  for (std::size_t i = 0; i < a.scatter.size(); ++i) {
    EXPECT_EQ(a.scatter[i].first, b.scatter[i].first);
    EXPECT_EQ(a.scatter[i].second, b.scatter[i].second);
  }
  ASSERT_EQ(a.per_bit_min_margin.size(), b.per_bit_min_margin.size());
  for (std::size_t i = 0; i < a.per_bit_min_margin.size(); ++i) {
    EXPECT_EQ(a.per_bit_min_margin[i], b.per_bit_min_margin[i]);
  }
}

void expect_yield_equal(const YieldResult& a, const YieldResult& b) {
  expect_scheme_equal(a.conventional, b.conventional);
  expect_scheme_equal(a.reference_cell, b.reference_cell);
  expect_scheme_equal(a.destructive, b.destructive);
  expect_scheme_equal(a.nondestructive, b.nondestructive);
  EXPECT_EQ(a.die_factor, b.die_factor);
  EXPECT_EQ(a.shared_reference_window.value(),
            b.shared_reference_window.value());
  EXPECT_EQ(a.shared_v_ref.value(), b.shared_v_ref.value());
  EXPECT_EQ(a.beta_destructive, b.beta_destructive);
  EXPECT_EQ(a.beta_nondestructive, b.beta_nondestructive);
}

void expect_estimate_equal(const ImportanceEstimate& a,
                           const ImportanceEstimate& b) {
  EXPECT_EQ(a.probability, b.probability);
  EXPECT_EQ(a.std_error, b.std_error);
  EXPECT_EQ(a.relative_error, b.relative_error);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.hits, b.hits);
}

void expect_tail_equal(const TailEstimate& a, const TailEstimate& b) {
  expect_estimate_equal(a.estimate, b.estimate);
  ASSERT_EQ(a.design_point.size(), b.design_point.size());
  for (std::size_t i = 0; i < a.design_point.size(); ++i) {
    EXPECT_EQ(a.design_point[i], b.design_point[i]);
  }
  EXPECT_EQ(a.design_radius, b.design_radius);
  EXPECT_EQ(a.expected_failures_16kb, b.expected_failures_16kb);
}

/// Synthetic linear failure surface for the importance-weight checks:
/// fail when z0 + 0.5 z1 > 2.5, per trial and per block.
bool linear_fails(const std::vector<double>& z) {
  return z[0] + 0.5 * z[1] > 2.5;
}

void linear_block_fails(const GaussianBlock& block, std::size_t,
                        std::uint8_t* fails) {
  const double* z0 = block.axis(0);
  const double* z1 = block.axis(1);
  for (std::size_t lane = 0; lane < block.size; ++lane) {
    if (z0[lane] + 0.5 * z1[lane] > 2.5) fails[lane] = 1;
  }
}

// -------------------------------------------- yield: batched vs oracle

TEST(McBatchYield, BitIdenticalToScalarAcrossCorners) {
  // Default corner, hot corner, off-center die, scatter subsampling, and
  // the per-bit-margin overlay all take the same code paths the campaign
  // goldens gate — each must match the per-cell oracle double for double.
  std::vector<YieldConfig> corners(5);
  corners[0].geometry = {24, 32};
  corners[1].geometry = {24, 32};
  corners[1].variation.sigma_common = 0.09;
  corners[2].geometry = {16, 48};
  corners[2].die_sigma = 0.05;
  corners[3].geometry = {32, 32};
  corners[3].max_scatter_points = 7;
  corners[4].geometry = {16, 16};
  corners[4].keep_per_bit_margins = true;
  corners[4].beta_destructive = 1.22;  // explicit override path
  for (const YieldConfig& cfg : corners) {
    expect_yield_equal(oracle::run_yield(cfg), run_yield_experiment(cfg));
  }
}

TEST(McBatchYield, ThreadCountBitIdentity) {
  YieldConfig cfg;
  cfg.geometry = {32, 48};
  cfg.keep_per_bit_margins = true;
  const YieldResult serial = run_yield_experiment(cfg);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    expect_yield_equal(serial, run_yield_experiment(cfg, &pool));
    expect_yield_equal(serial, oracle::run_yield(cfg, &pool));
  }
}

// --------------------------------------------- tail: batched vs oracle

TEST(McBatchTail, BitIdenticalToScalarAcrossThresholdsAndThreads) {
  for (const double threshold_mv : {6.0, 8.0, 10.0}) {
    TailConfig cfg;
    cfg.threshold = Volt(threshold_mv * 1e-3);
    const TailEstimate batched = estimate_margin_tail(cfg, 7, 4000);
    expect_tail_equal(oracle::estimate_tail(cfg, 7, 4000), batched);
    for (const std::size_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      expect_tail_equal(batched, estimate_margin_tail(cfg, 7, 4000, &pool));
      expect_tail_equal(batched,
                        oracle::estimate_tail(cfg, 7, 4000, &pool));
    }
  }
}

// ------------------------------------- importance weights: block sizes

TEST(McBatchImportance, WeightsInvariantUnderBlockSizeAndThreads) {
  const std::vector<double> shift = {2.0, 1.0, 0.0};
  const std::size_t trials = 5000;
  const ImportanceEstimate reference =
      importance_sample(11, trials, shift, linear_fails);
  EXPECT_GT(reference.hits, 0u);
  for (const std::size_t block : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{0}}) {
    expect_estimate_equal(reference,
                          importance_sample_blocked(11, trials, shift,
                                                    linear_block_fails,
                                                    nullptr, block));
  }
  ThreadPool pool(4);
  expect_estimate_equal(reference,
                        importance_sample_blocked(11, trials, shift,
                                                  linear_block_fails, &pool,
                                                  64));
}

// ------------------------------------------------------------ op cache

TEST(OpCache, HitMissAndEvictionCorrectness) {
  OpCache cache;
  // The memoized value must be the pure function of the key no matter
  // how often entries are hit, missed, or evicted on the way.
  const auto value_of = [](std::uint64_t key) {
    OperatingPoint op;
    op.beta = static_cast<double>(key % 97) + 0.5;
    return op;
  };
  std::size_t solves = 0;
  const auto lookup = [&](std::uint64_t key) {
    return cache
        .get_or_compute(key,
                        [&] {
                          ++solves;
                          return value_of(key);
                        })
        .beta;
  };
  const std::uint64_t k1 = op_key_mix(op_key(OpKind::kDestructiveBeta), 1.0);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);
  EXPECT_EQ(solves, 1u);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);  // hit: no new solve
  EXPECT_EQ(solves, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Blow through the 64-slot table to force evictions, then re-query
  // everything: values stay correct whether served cached or recomputed.
  std::vector<std::uint64_t> keys;
  for (double v = 0.0; v < 300.0; v += 1.0) {
    keys.push_back(op_key_mix(op_key(OpKind::kSharedVRef), v));
  }
  for (const std::uint64_t k : keys) EXPECT_EQ(lookup(k), value_of(k).beta);
  for (const std::uint64_t k : keys) EXPECT_EQ(lookup(k), value_of(k).beta);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 2 * keys.size() + 2);

  cache.clear();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(lookup(k1), value_of(k1).beta);  // cold again
}

TEST(OpCache, CachedOperatingPointsMatchDirectConstruction) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  const SelfRefConfig selfref;
  const Ohm r_t(917.0);
  EXPECT_EQ(cached_destructive_beta(nominal, r_t, selfref),
            DestructiveSelfReference(nominal, r_t, selfref).paper_beta());
  EXPECT_EQ(cached_nondestructive_beta(nominal, r_t, selfref),
            NondestructiveSelfReference(nominal, r_t, selfref).paper_beta());
  EXPECT_EQ(cached_shared_v_ref(nominal, r_t, selfref.i_max).value(),
            ConventionalSensing(nominal, r_t, selfref.i_max)
                .midpoint_reference()
                .value());
}

TEST(OpCache, ColdVsWarmCacheDeterminism) {
  YieldConfig cfg;
  cfg.geometry = {16, 24};
  OpCache::local_shard().clear();
  const YieldResult cold = run_yield_experiment(cfg);  // this thread's shard
  const OpCacheStats after_cold = OpCache::local_shard().stats();
  EXPECT_GT(after_cold.misses, 0u);
  const YieldResult warm = run_yield_experiment(cfg);
  const OpCacheStats after_warm = OpCache::local_shard().stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  expect_yield_equal(cold, warm);

  TailConfig tail;
  OpCache::local_shard().clear();
  const TailEstimate tail_cold = estimate_margin_tail(tail, 5, 2000);
  const TailEstimate tail_warm = estimate_margin_tail(tail, 5, 2000);
  expect_tail_equal(tail_cold, tail_warm);
}

// ---------------------------------------------- batched Newton (Simmons)

TEST(McBatchRiCurve, SimmonsBatchedNewtonBitIdentical) {
  const SimmonsRiModel model =
      SimmonsRiModel::calibrated_to(MtjParams::paper_calibrated());
  // Mixed-convergence grid: zero current, tiny, nominal, and far beyond
  // the calibration point (lanes retire at different iterations).
  std::vector<double> grid = {0.0, 1e-9, 1e-7, 5e-6, 2e-5, 1e-4};
  for (double i = 1e-6; i < 6e-5; i += 3.7e-6) grid.push_back(i);
  std::vector<double> v_batch(grid.size()), r_batch(grid.size());
  for (const MtjState state : {MtjState::kParallel, MtjState::kAntiParallel}) {
    model.bias_voltage_batch(state, grid.data(), grid.size(), v_batch.data());
    model.resistance_batch(state, grid.data(), grid.size(), r_batch.data());
    for (std::size_t k = 0; k < grid.size(); ++k) {
      EXPECT_EQ(v_batch[k],
                model.bias_voltage(state, Ampere(grid[k])).value())
          << "lane " << k;
      EXPECT_EQ(r_batch[k], model.resistance(state, Ampere(grid[k])).value())
          << "lane " << k;
    }
  }
}

TEST(McBatchRiCurve, LinearBatchedBitIdentical) {
  const LinearRiModel model(MtjParams::paper_calibrated());
  const std::vector<double> grid = {0.0, 1e-6, 1e-5, 2e-5, 4e-5, 1e-4};
  std::vector<double> r_batch(grid.size());
  for (const MtjState state : {MtjState::kParallel, MtjState::kAntiParallel}) {
    model.resistance_batch(state, grid.data(), grid.size(), r_batch.data());
    for (std::size_t k = 0; k < grid.size(); ++k) {
      EXPECT_EQ(r_batch[k], model.resistance(state, Ampere(grid[k])).value());
    }
  }
}

// -------------------------------------------------------- observability

TEST(McBatchObs, MetricsOnVsOffBitIdentityAndCounters) {
  YieldConfig cfg;
  cfg.geometry = {16, 32};
  obs::set_metrics_enabled(false);
  const YieldResult off = run_yield_experiment(cfg);
  obs::set_metrics_enabled(true);
  const YieldResult on = run_yield_experiment(cfg);
  const TailEstimate tail_on = estimate_margin_tail(TailConfig{}, 5, 1000);
  obs::set_metrics_enabled(false);
  const TailEstimate tail_off = estimate_margin_tail(TailConfig{}, 5, 1000);
  expect_yield_equal(off, on);
  expect_tail_equal(tail_off, tail_on);

  // The instrumented run must have published the batching telemetry.
  const auto& registry = obs::Registry::instance();
  bool saw_hits = false, saw_misses = false, saw_gauge = false;
  std::uint64_t opcache_total = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "mc.opcache.hits") {
      saw_hits = true;
      opcache_total += c.value;
    }
    if (c.name == "mc.opcache.misses") {
      saw_misses = true;
      opcache_total += c.value;
    }
  }
  for (const auto& g : registry.gauges()) {
    if (g.name == "mc.batch_size") {
      saw_gauge = true;
      EXPECT_EQ(g.value, static_cast<double>(kMcBlockSize));
    }
  }
  EXPECT_TRUE(saw_hits);
  EXPECT_TRUE(saw_misses);
  EXPECT_TRUE(saw_gauge);
  EXPECT_GT(opcache_total, 0u);
  bool saw_hist = false;
  for (const auto& h : registry.histograms()) {
    if (h.name == "mc.block_seconds") {
      saw_hist = true;
      EXPECT_GT(h.hist.summary().count, 0u);
    }
  }
  EXPECT_TRUE(saw_hist);
}

// ---------------------------------------------------- forced-ISA matrix

/// RAII ISA pin: a failing EXPECT inside a forced section must not leak
/// the override into the remaining tests.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) { set_simd_isa_override(isa); }
  ~ScopedSimdIsa() { clear_simd_isa_override(); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;
};

TEST(McSimd, ParseAndOverrideValidation) {
  SimdIsa isa = SimdIsa::kAvx512;
  bool is_auto = false;
  ASSERT_TRUE(parse_simd_isa("auto", &isa, &is_auto));
  EXPECT_TRUE(is_auto);
  EXPECT_EQ(isa, SimdIsa::kAvx512);  // "auto" leaves *out untouched
  const struct {
    const char* token;
    SimdIsa want;
  } cases[] = {{"scalar", SimdIsa::kScalar}, {"sse2", SimdIsa::kSse2},
               {"neon", SimdIsa::kNeon},     {"avx2", SimdIsa::kAvx2},
               {"avx512", SimdIsa::kAvx512}};
  for (const auto& c : cases) {
    ASSERT_TRUE(parse_simd_isa(c.token, &isa, &is_auto)) << c.token;
    EXPECT_FALSE(is_auto) << c.token;
    EXPECT_EQ(isa, c.want) << c.token;
  }
  for (const char* bad : {"bogus", "", "AVX2", "sse", "avx-512"}) {
    EXPECT_FALSE(parse_simd_isa(bad, &isa, &is_auto)) << bad;
  }

  // The scalar path exists everywhere; pinning an ISA the host/build
  // cannot execute must throw instead of silently dispatching garbage.
  EXPECT_TRUE(simd_isa_supported(SimdIsa::kScalar));
  EXPECT_TRUE(simd_isa_supported(detect_simd_isa()));
  for (const SimdIsa candidate : {SimdIsa::kSse2, SimdIsa::kNeon,
                                  SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(candidate)) continue;
    EXPECT_THROW(set_simd_isa_override(candidate), InvalidArgument);
  }
  clear_simd_isa_override();
}

TEST(McSimd, ForcedIsaMatrixBitIdenticalToScalar) {
  // Every ISA the host can run, `scalar` (the W = 1 instantiation)
  // included, must reproduce the class-based oracle double for double:
  // yield, tail, importance weights and the Simmons Newton, cold and warm
  // op cache, serial and on 1/2/3/8 worker threads.  The sizes leave
  // remainders at every width, so the W = 1 lanes inside the wider
  // kernels run too: column counts that wrap mid-strip, 3001 trials (a
  // partial last block) and a 29-point Simmons grid.
  std::vector<YieldConfig> ycfgs(4);
  ycfgs[0].geometry = {16, 32};
  ycfgs[1].geometry = {7, 13};
  ycfgs[2].geometry = {5, 37};
  ycfgs[3].geometry = {3, 129};
  std::vector<YieldResult> y_oracle;
  for (YieldConfig& cfg : ycfgs) {
    cfg.keep_per_bit_margins = true;
    y_oracle.push_back(oracle::run_yield(cfg));
  }
  const TailConfig tcfg;
  const TailEstimate t_oracle = oracle::estimate_tail(tcfg, 7, 3001);
  const std::vector<double> shift = {2.0, 1.0, 0.0};
  const ImportanceEstimate i_oracle =
      importance_sample(11, 3001, shift, linear_fails);
  const SimmonsRiModel simmons =
      SimmonsRiModel::calibrated_to(MtjParams::paper_calibrated());
  std::vector<double> grid = {0.0, 1e-9, 1e-7};
  for (int k = 1; k <= 26; ++k) grid.push_back(2.3e-6 * k);
  std::vector<double> v_batch(grid.size());

  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    OpCache::local_shard().clear();
    expect_yield_equal(y_oracle[0], run_yield_experiment(ycfgs[0]));  // cold
    for (std::size_t g = 0; g < ycfgs.size(); ++g) {
      SCOPED_TRACE(g);
      expect_yield_equal(y_oracle[g], run_yield_experiment(ycfgs[g]));
    }
    expect_tail_equal(t_oracle, estimate_margin_tail(tcfg, 7, 3001));
    expect_estimate_equal(i_oracle,
                          importance_sample_blocked(11, 3001, shift,
                                                    linear_block_fails));
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      for (std::size_t g = 0; g < ycfgs.size(); ++g) {
        expect_yield_equal(y_oracle[g],
                           run_yield_experiment(ycfgs[g], &pool));
      }
      expect_tail_equal(t_oracle,
                        estimate_margin_tail(tcfg, 7, 3001, &pool));
      expect_estimate_equal(i_oracle,
                            importance_sample_blocked(11, 3001, shift,
                                                      linear_block_fails,
                                                      &pool));
    }
    for (const MtjState state :
         {MtjState::kParallel, MtjState::kAntiParallel}) {
      simmons.bias_voltage_batch(state, grid.data(), grid.size(),
                                 v_batch.data());
      for (std::size_t k = 0; k < grid.size(); ++k) {
        EXPECT_EQ(v_batch[k],
                  simmons.bias_voltage(state, Ampere(grid[k])).value())
            << "lane " << k;
      }
    }
  }
}

// --------------------------------------------------- sampling fidelity

TEST(McBatchSampling, VariationBlockMatchesMemoryArrayDraws) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  const VariationParams vp;
  const MtjVariationModel variation(nominal, vp);
  const ArrayGeometry geometry{8, 16};
  const double sigma_access = 0.02;
  const std::uint64_t seed = 20100308;
  const MemoryArray array(geometry, variation, sigma_access, seed);
  const Xoshiro256 master(seed);
  const std::size_t cells = geometry.cell_count();
  VariationBlock block;
  for (std::size_t first = 0; first < cells; first += kMcBlockSize) {
    const std::size_t count = std::min(cells - first, kMcBlockSize);
    sample_variation_block(master, variation, 917.0, sigma_access, first,
                           count, block);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const std::size_t idx = first + lane;
      const ArrayCell& cell =
          array.cell(idx / geometry.cols, idx % geometry.cols);
      EXPECT_EQ(block.r_low0[lane], cell.params.r_low0.value());
      EXPECT_EQ(block.r_high0[lane], cell.params.r_high0.value());
      EXPECT_EQ(block.droop_low[lane], cell.params.droop_low.value());
      EXPECT_EQ(block.droop_high[lane], cell.params.droop_high.value());
      EXPECT_EQ(block.r_access[lane], cell.r_access.value());
    }
  }
}

}  // namespace
}  // namespace sttram
