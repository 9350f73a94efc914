// Batched SoA Monte-Carlo kernels vs the class-based per-cell oracle
// (mc_oracle.hpp): the differential bit-identity proof behind the yield,
// tail and Gaussian-fill kernels for every SIMD ISA (DESIGN.md
// §14-§15), plus the operating-point cache's correctness contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
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
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/importance.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {
namespace {

using engine::ThreadPool;
using oracle::importance_sample;

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
  for (const SchemeRow& row : kSchemeTable) {
    expect_scheme_equal(a.scheme(row.id), b.scheme(row.id));
  }
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

TEST(McBatchYield, MultiWindowPipelineMatchesOracle) {
  // 129 x 257 = 16 384 + 16 384 + 385 cells: three pipeline windows, the
  // last one partial and ending in a partial 64-cell block.  The other
  // yield tests and the campaign goldens all fit in one window.
  YieldConfig cfg;
  cfg.geometry = {129, 257};
  cfg.keep_per_bit_margins = true;
  cfg.max_scatter_points = 1000;  // does not divide the cell count
  cfg.die_sigma = 0.05;
  const YieldResult expected = oracle::run_yield(cfg);
  EXPECT_EQ(expected.conventional.scatter.size(), 976u);
  expect_yield_equal(expected, run_yield_experiment(cfg));
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    expect_yield_equal(expected, run_yield_experiment(cfg, &pool));
  }
}

TEST(McBatchYield, EmptyArrayGivesEmptyResult) {
  // Zero rows, zero columns or both: no window to sample or record, and
  // no shared-reference bound, so the window is +inf - (-inf).  The
  // designed operating points are the nominal device's, whatever the
  // shape.
  YieldConfig nominal;
  nominal.geometry = {1, 1};
  const YieldResult one_cell = run_yield_experiment(nominal);
  ThreadPool pool(4);
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{0, 8}, {8, 0}, {0, 0}}) {
    SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
    YieldConfig cfg;
    cfg.geometry = {rows, cols};
    cfg.keep_per_bit_margins = true;
    for (ParallelExecutor* executor :
         {static_cast<ParallelExecutor*>(nullptr),
          static_cast<ParallelExecutor*>(&pool)}) {
      const YieldResult r = run_yield_experiment(cfg, executor);
      for (const SchemeRow& row : kSchemeTable) {
        const SchemeYield& y = r.scheme(row.id);
        EXPECT_EQ(y.scheme, row.label);
        EXPECT_EQ(y.bits, 0u);
        EXPECT_EQ(y.failures, 0u);
        EXPECT_EQ(y.sm0_stats.count(), 0u);
        EXPECT_EQ(y.sm1_stats.count(), 0u);
        EXPECT_TRUE(y.scatter.empty());
        EXPECT_TRUE(y.per_bit_min_margin.empty());
      }
      EXPECT_EQ(r.shared_reference_window.value(),
                std::numeric_limits<double>::infinity());
      EXPECT_EQ(r.beta_destructive, one_cell.beta_destructive);
      EXPECT_EQ(r.beta_nondestructive, one_cell.beta_nondestructive);
      EXPECT_EQ(r.shared_v_ref.value(), one_cell.shared_v_ref.value());
    }
  }
}

TEST(McBatchYield, SolveWritesRelativeToTheBufferOrigin) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  const std::size_t cols = 8;
  YieldKernelInputs in;
  in.i_droop_ref = nominal.i_droop_ref.value();
  in.beta_destructive = 1.2;
  in.beta_nondestructive = 1.5;
  in.shared_v_ref = Volt(0.3);
  in.col_vref_err.assign(cols, 0.0);
  in.col_beta_dev.assign(cols, 0.0);
  in.col_alpha_dev.assign(cols, 0.0);
  in.col_ref_p.assign(cols, nominal);
  in.col_ref_ap.assign(cols, nominal);
  const YieldBatchKernel kernel = YieldBatchKernel::build(in);
  const MtjVariationModel variation(nominal, VariationParams{});
  VariationBlock block;
  sample_variation_block(Xoshiro256(7), variation, 917.0, 0.02, 128,
                         kMcBlockSize, block);

  // The same block into a whole-array frame and into a one-block buffer
  // whose slot 0 is cell 128.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  YieldMarginsSoA frame;
  frame.resize(256);
  YieldMarginsSoA window;
  window.origin = 128;
  window.resize(kMcBlockSize);
  double lo = -kInf, hi = kInf, window_lo = -kInf, window_hi = kInf;
  kernel.solve(block, 128, &frame, &lo, &hi);
  kernel.solve(block, 128, &window, &window_lo, &window_hi);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t i = 0; i < kMcBlockSize; ++i) {
      EXPECT_EQ(window.row(r)[i], frame.row(r)[128 + i]);
    }
  }
  EXPECT_EQ(window_lo, lo);
  EXPECT_EQ(window_hi, hi);

  // Blocks that start before the origin (64 would wrap to an in-range
  // end without the lower check) or end past the buffer are rejected.
  EXPECT_THROW(kernel.solve(block, 64, &window, &lo, &hi), InvalidArgument);
  EXPECT_THROW(kernel.solve(block, 0, &window, &lo, &hi), InvalidArgument);
  EXPECT_THROW(kernel.solve(block, 129, &window, &lo, &hi), InvalidArgument);
  EXPECT_THROW(kernel.solve(block, 256, &frame, &lo, &hi), InvalidArgument);
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

// Blocks of kMcBlockSize never span an executor chunk, so each thread
// count cuts the trials into different blocks: 5000 = 78 x 64 + 8 in one
// chunk, 1667 = 26 x 64 + 3 in the first of three, and so on.
TEST(McBatchImportance, WeightsInvariantUnderBlockSizeAndThreads) {
  const std::vector<double> shift = {2.0, 1.0, 0.0};
  const std::size_t trials = 5000;
  const ImportanceEstimate reference =
      importance_sample(11, trials, shift, linear_fails);
  EXPECT_GT(reference.hits, 0u);
  expect_estimate_equal(reference,
                        importance_sample_blocked(11, trials, shift,
                                                  linear_block_fails));
  for (const std::size_t threads : {1u, 3u, 4u, 7u}) {
    ThreadPool pool(threads);
    expect_estimate_equal(reference,
                          importance_sample_blocked(11, trials, shift,
                                                    linear_block_fails,
                                                    &pool));
  }
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

TEST(OpCache, ThrowingSolveLeavesNoEntry) {
  // A solve that throws (say, an out-of-range divider ratio) must not
  // leave its key behind: the next lookup solves again instead of
  // returning a zeroed point.
  OpCache cache;
  const std::uint64_t key = op_key(OpKind::kNondestructiveBeta);
  EXPECT_THROW((void)cache.get_or_compute(
                   key,
                   []() -> OperatingPoint {
                     throw InvalidArgument("solve failed");
                   }),
               InvalidArgument);
  std::size_t solves = 0;
  const double beta = cache
                          .get_or_compute(key,
                                          [&] {
                                            ++solves;
                                            OperatingPoint op;
                                            op.beta = 2.0;
                                            return op;
                                          })
                          .beta;
  EXPECT_EQ(solves, 1u);
  EXPECT_EQ(beta, 2.0);
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
  // The warm run finds every operating point in the cache.
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  expect_yield_equal(cold, warm);

  TailConfig tail;
  OpCache::local_shard().clear();
  const TailEstimate tail_cold = estimate_margin_tail(tail, 5, 2000);
  const std::uint64_t tail_misses = OpCache::local_shard().stats().misses;
  const TailEstimate tail_warm = estimate_margin_tail(tail, 5, 2000);
  EXPECT_EQ(OpCache::local_shard().stats().misses, tail_misses);
  expect_tail_equal(tail_cold, tail_warm);
}

// ------------------------------------------------------ linear R-I law

TEST(McBatchRiCurve, LinearBatchedBitIdentical) {
  // The linear law over contiguous lanes, as the yield kernel forms each
  // cell's read resistances: R0 - dR * min(|I| / I_ref, 1.5).
  const MtjParams p = MtjParams::paper_calibrated();
  const LinearRiModel model(p);
  const std::vector<double> grid = {0.0, 1e-6, 1e-5, 2e-5, 4e-5, 1e-4};
  for (const MtjState state : {MtjState::kParallel, MtjState::kAntiParallel}) {
    const bool low = state == MtjState::kParallel;
    const double r0 = (low ? p.r_low0 : p.r_high0).value();
    const double droop = (low ? p.droop_low : p.droop_high).value();
    for (const double i : grid) {
      const double frac = std::min(std::fabs(i) / p.i_droop_ref.value(), 1.5);
      EXPECT_EQ(r0 - droop * frac, model.resistance(state, Ampere(i)).value());
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
  // Durations are per run, never per block: one yield.experiment scope
  // ran metered, and no block-level timing exists.
  bool saw_hist = false;
  for (const auto& h : registry.histograms()) {
    EXPECT_NE(h.name, "mc.block_seconds");
    if (h.name == "yield.experiment_seconds") {
      saw_hist = true;
      EXPECT_EQ(h.hist.summary().count, 1u);
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
  // yield, tail and importance weights, cold and warm op cache, serial
  // and on 1/2/3/8 worker threads.  The sizes leave remainders at every
  // width, so the W = 1 lanes inside the wider kernels run too: column
  // counts that wrap mid-strip and 3001 trials (a partial last block).
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
  }
}

// --------------------------------------------------- sampling fidelity

/// Lanes of sample_variation_block(first, count) that differ from the
/// per-cell draws of `array` (built from the same model, sigma and seed);
/// the first difference is reported.
std::size_t variation_block_mismatches(const MemoryArray& array,
                                       const MtjVariationModel& variation,
                                       double sigma_access,
                                       std::uint64_t seed, std::size_t first,
                                       std::size_t count) {
  VariationBlock block;
  sample_variation_block(Xoshiro256(seed), variation, 917.0, sigma_access,
                         first, count, block);
  const std::size_t cols = array.geometry().cols;
  std::size_t mismatches = 0;
  for (std::size_t lane = 0; lane < count; ++lane) {
    const std::size_t idx = first + lane;
    const ArrayCell& cell = array.cell(idx / cols, idx % cols);
    const bool same =
        block.r_low0[lane] == cell.params.r_low0.value() &&
        block.r_high0[lane] == cell.params.r_high0.value() &&
        block.droop_low[lane] == cell.params.droop_low.value() &&
        block.droop_high[lane] == cell.params.droop_high.value() &&
        block.r_access[lane] == cell.r_access.value();
    if (!same && mismatches++ == 0) {
      ADD_FAILURE() << "cell " << idx << " differs from MemoryArray";
    }
  }
  return mismatches;
}

/// Cells of [0, cells) whose critical-current draw rejected at least once:
/// the stream after sample_truncated_normal stands elsewhere than after a
/// single normal, which is all an accepted first draw consumes.
std::size_t icrit_rejections(const MtjVariationModel& variation,
                             std::uint64_t seed, std::size_t cells) {
  const Xoshiro256 master(seed);
  const TruncatedNormal f = variation.icrit_factor();
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    Xoshiro256 stream = master.fork(i);
    (void)sample_standard_normal(stream);  // common factor
    (void)sample_standard_normal(stream);  // TMR factor
    Xoshiro256 once = stream;
    (void)sample_truncated_normal(stream, f.mean, f.stddev, f.lo, f.hi);
    (void)sample_standard_normal(once);
    if (stream.next_u64() != once.next_u64()) ++rejected;
  }
  return rejected;
}

TEST(McBatchSampling, VariationBlockMatchesMemoryArrayDraws) {
  // Every host ISA, so the W = 1/2/4/8 staging and the remainder lanes
  // all run.  sigma_icrit 0 has no dropped draw; 0.05 is the default;
  // at 0.3 the lower truncation bound clamps to 0.05 (3.17 sigma, ~0.08 %
  // of first draws reject), checked over 16 Ki cells; at 1.5 the window
  // sits 0.63 sigma below the mean, so most rejections run the value
  // tail.  Besides whole blocks, a block that starts off a strip
  // boundary and ends mid-strip (first 3, count 61).
  const MtjParams nominal = MtjParams::paper_calibrated();
  const double sigma_access = 0.02;
  const std::uint64_t seed = 20100308;
  for (const double sigma_icrit : {0.0, 0.05, 0.3, 1.5}) {
    SCOPED_TRACE(sigma_icrit);
    VariationParams vp;
    vp.sigma_icrit = sigma_icrit;
    const MtjVariationModel variation(nominal, vp);
    const ArrayGeometry geometry =
        sigma_icrit == 0.3 ? ArrayGeometry{128, 128} : ArrayGeometry{8, 16};
    const std::size_t cells = geometry.cell_count();
    const MemoryArray array(geometry, variation, sigma_access, seed);
    if (sigma_icrit == 0.3) {
      EXPECT_GE(icrit_rejections(variation, seed, cells), 1u);
    }
    for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2,
                              SimdIsa::kNeon, SimdIsa::kAvx2,
                              SimdIsa::kAvx512}) {
      if (!simd_isa_supported(isa)) continue;
      SCOPED_TRACE(simd_isa_name(isa));
      ScopedSimdIsa forced(isa);
      for (std::size_t first = 0; first < cells; first += kMcBlockSize) {
        const std::size_t count = std::min(cells - first, kMcBlockSize);
        EXPECT_EQ(variation_block_mismatches(array, variation, sigma_access,
                                             seed, first, count),
                  0u)
            << "block at " << first;
      }
      EXPECT_EQ(variation_block_mismatches(array, variation, sigma_access,
                                           seed, 3, 61),
                0u);
    }
  }
}

/// sample_standard_normal's rejection loop, stopped before its value.
void scalar_polar_pair(Xoshiro256& rng, double* u, double* s) {
  for (;;) {
    const double pu = 2.0 * rng.next_double() - 1.0;
    const double pv = 2.0 * rng.next_double() - 1.0;
    const double ps = pu * pu + pv * pv;
    if (ps > 0.0 && ps < 1.0) {
      *u = pu;
      *s = ps;
      return;
    }
  }
}

TEST(McBatchSampling, StagedPolarRowsMatchScalarDraws) {
  // Plans the two production callers do not reach: more pairs than one
  // rejection loop fills (4 at W > 1), a dropped draw first, last and in
  // a later loop, a window far off the mean (every accepted pair runs the
  // value tail) and one that rejects most draws.  Every lane must hold
  // the scalar sampler's pairs, for every host ISA and a lane range that
  // starts and ends off strip boundaries, and the row slots past the
  // last lane must stay as they were.
  const TruncatedNormal windows[] = {
      {1.0, 0.05, 0.8, 1.2}, {0.0, 1.0, 0.5, 3.0}, {0.0, 1.0, -0.1, 0.1}};
  const std::size_t first = 5;
  const std::size_t count = 45;
  const std::size_t stride = 48;
  const Xoshiro256 master(31337);
  for (const std::size_t pairs : {1u, 4u, 5u, 9u}) {
    for (const std::size_t drop_at : {std::size_t{0}, std::size_t{3},
                                      std::size_t{4}, std::size_t{8},
                                      std::size_t{SIZE_MAX}}) {
      for (const TruncatedNormal& window : windows) {
        PolarPlan plan;
        plan.pairs = pairs;
        plan.drop_at = drop_at;
        plan.dropped = window;
        std::vector<double> u_want(pairs * stride), s_want(pairs * stride);
        for (std::size_t lane = 0; lane < count; ++lane) {
          Xoshiro256 stream = master.fork(first + lane);
          for (std::size_t p = 0; p < pairs; ++p) {
            if (p == drop_at) {
              (void)sample_truncated_normal(stream, window.mean,
                                            window.stddev, window.lo,
                                            window.hi);
            }
            scalar_polar_pair(stream, &u_want[p * stride + lane],
                              &s_want[p * stride + lane]);
          }
        }
        for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2,
                                  SimdIsa::kNeon, SimdIsa::kAvx2,
                                  SimdIsa::kAvx512}) {
          if (!simd_isa_supported(isa)) continue;
          ScopedSimdIsa forced(isa);
          std::vector<double> u(pairs * stride, -7.0);
          std::vector<double> s(pairs * stride, -7.0);
          stage_polar_rows(master, first, count, plan, u.data(), s.data(),
                           stride);
          std::size_t mismatches = 0;
          for (std::size_t p = 0; p < pairs; ++p) {
            for (std::size_t lane = 0; lane < stride; ++lane) {
              const std::size_t i = p * stride + lane;
              const bool ok = lane < count
                                  ? u[i] == u_want[i] && s[i] == s_want[i]
                                  : u[i] == -7.0 && s[i] == -7.0;
              if (!ok) ++mismatches;
            }
          }
          EXPECT_EQ(mismatches, 0u)
              << simd_isa_name(isa) << ": pairs " << pairs << ", drop at "
              << drop_at << ", window [" << window.lo << ", " << window.hi
              << "]";
        }
      }
    }
  }
}

TEST(McBatchSampling, HopelessDroppedWindowThrowsLikeTheScalarSampler) {
  // 20 to 21 sigma: sample_truncated_normal gives up after
  // kTruncatedNormalMaxTries draws, and so must every width.
  const TruncatedNormal hopeless{0.0, 1.0, 20.0, 21.0};
  Xoshiro256 scalar_stream(5);
  EXPECT_THROW((void)sample_truncated_normal(scalar_stream, hopeless.mean,
                                             hopeless.stddev, hopeless.lo,
                                             hopeless.hi),
               NumericError);
  PolarPlan plan;
  plan.pairs = 1;
  plan.drop_at = 0;
  plan.dropped = hopeless;
  std::vector<double> u(16), s(16);
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (!simd_isa_supported(isa)) continue;
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    EXPECT_THROW(stage_polar_rows(Xoshiro256(5), 0, 9, plan, u.data(),
                                  s.data(), 16),
                 NumericError);
  }
  plan.dropped = {0.0, 1.0, 1.0, 1.0};  // lo == hi, as sample_truncated_normal
  EXPECT_THROW(
      stage_polar_rows(Xoshiro256(5), 0, 9, plan, u.data(), s.data(), 16),
      InvalidArgument);
}

// ------------------------------------------------ lane-parallel record

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The scalar Welford update, written out apart from the shared body
/// RunningStats and the lane record run, so a slip there shows.
struct ReferenceWelford {
  std::size_t n = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;

  void add(double x) {
    if (n == 0) {
      min = max = x;
    } else {
      min = std::min(min, x);
      max = std::max(max, x);
    }
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
  }
  [[nodiscard]] double variance() const {
    return n < 2 ? 0.0 : m2 / static_cast<double>(n - 1);
  }
};

void expect_same_bits(const RunningStats& got, const ReferenceWelford& want) {
  ASSERT_EQ(got.count(), want.n);
  EXPECT_EQ(bits(got.mean()), bits(want.mean));
  EXPECT_EQ(bits(got.variance()), bits(want.variance()));
  EXPECT_EQ(bits(got.min()), bits(want.min));
  EXPECT_EQ(bits(got.max()), bits(want.max));
}

/// Feeds lane j of WelfordLanes<W> the sequence xs rotated by j, and the
/// same values to a RunningStats and to the written-out update; every
/// moment must match bitwise after every step.
template <int W>
void expect_lanes_match_running_stats(const std::vector<double>& xs) {
  using V = simd::Vec<W>;
  WelfordLanes<W> lanes;
  RunningStats stats[W];
  ReferenceWelford want[W];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "W " << W << " after " << i + 1);
    alignas(64) double x[W];
    for (int j = 0; j < W; ++j) {
      x[j] = xs[(i + static_cast<std::size_t>(j)) % xs.size()];
      stats[j].add(x[j]);
      want[j].add(x[j]);
    }
    lanes.add(V::load(x));
    for (int j = 0; j < W; ++j) {
      expect_same_bits(RunningStats(lanes, j), want[j]);
      expect_same_bits(stats[j], want[j]);
    }
  }
}

TEST(McBatchRecord, WelfordLanesMatchRunningStatsBitwise) {
  // Signed-zero ties (std::min/std::max keep the first of equal
  // operands), long runs of one repeated value, a lone first value, and
  // margins spanning the failure threshold with subnormal and huge
  // magnitudes mixed in.
  const std::vector<std::vector<double>> sequences = {
      {0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0},
      {-0.0, 0.0, 1e-3, -1e-3, 0.0, -0.0},
      {7e-3, 7e-3, 7e-3, 7e-3, 7e-3, 7e-3, 7e-3, 7e-3, 7e-3},
      {0.0125},
      {8e-3, 7.9999999999999996e-3, 0.031, -0.004, 4.9e-324, 1e300,
       -1e300, 0.015, 0.015, -2.2e-308, 8e-3},
  };
  for (const std::vector<double>& xs : sequences) {
    expect_lanes_match_running_stats<1>(xs);
    expect_lanes_match_running_stats<2>(xs);
  }
}

TEST(McBatchRecord, OneCellAndThreeWindowArraysMatchTheOracle) {
  // A one-cell array is a one-cell first (and last) window; 129 x 257 is
  // three windows, the last partial.  The record's two-lane groups are
  // the same under every ISA; the staging in front of them is not.
  std::vector<YieldConfig> cfgs(2);
  cfgs[0].geometry = {1, 1};
  cfgs[1].geometry = {129, 257};
  for (const YieldConfig& cfg : cfgs) {
    const YieldResult want = oracle::run_yield(cfg);
    for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2,
                              SimdIsa::kNeon, SimdIsa::kAvx2,
                              SimdIsa::kAvx512}) {
      if (!simd_isa_supported(isa)) continue;
      SCOPED_TRACE(simd_isa_name(isa));
      ScopedSimdIsa forced(isa);
      expect_yield_equal(want, run_yield_experiment(cfg));
      ThreadPool pool(3);
      expect_yield_equal(want, run_yield_experiment(cfg, &pool));
    }
  }
}

}  // namespace
}  // namespace sttram
