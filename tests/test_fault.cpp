// Tests of the fault-injection and error-recovery subsystem:
// SECDED(72,64) properties, deterministic fault maps, march coverage,
// the traffic fault hook (including the zero-cost-when-off contract)
// and the yield BER overlay.
#include <gtest/gtest.h>

#include <vector>

#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/fault/fault.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/rng.hpp"

using namespace sttram;
using namespace sttram::fault;

// ---------------------------------------------------------------- ECC

TEST(Ecc, CleanWordsDecodeUnchanged) {
  Xoshiro256 rng(20100308);
  for (int t = 0; t < 200; ++t) {
    const std::uint64_t word = rng.next_u64();
    const EccCodeword code = ecc_encode(word);
    const EccDecode out = ecc_decode(code);
    EXPECT_TRUE(out.ok());
    EXPECT_FALSE(out.corrected);
    EXPECT_EQ(out.data, word);
  }
}

TEST(Ecc, EverySingleBitErrorIsCorrected) {
  Xoshiro256 rng(1);
  for (int t = 0; t < 20; ++t) {
    const std::uint64_t word = rng.next_u64();
    for (int bit = 0; bit < kEccCodewordBits; ++bit) {
      EccCodeword code = ecc_encode(word);
      ecc_flip_bit(code, bit);
      const EccDecode out = ecc_decode(code);
      EXPECT_TRUE(out.corrected) << "bit " << bit;
      EXPECT_FALSE(out.double_error) << "bit " << bit;
      EXPECT_EQ(out.data, word) << "bit " << bit;
      EXPECT_EQ(out.corrected_bit, bit);
    }
  }
}

TEST(Ecc, EveryDoubleBitErrorIsDetected) {
  Xoshiro256 rng(2);
  for (int t = 0; t < 4; ++t) {
    const std::uint64_t word = rng.next_u64();
    for (int a = 0; a < kEccCodewordBits; ++a) {
      for (int b = a + 1; b < kEccCodewordBits; ++b) {
        EccCodeword code = ecc_encode(word);
        ecc_flip_bit(code, a);
        ecc_flip_bit(code, b);
        const EccDecode out = ecc_decode(code);
        EXPECT_TRUE(out.double_error) << a << "," << b;
        EXPECT_FALSE(out.corrected) << a << "," << b;
      }
    }
  }
}

TEST(Ecc, EdgeWordsSurviveSingleBitErrors) {
  for (const std::uint64_t word : {0ULL, ~0ULL, 0x8000000000000001ULL}) {
    for (int bit = 0; bit < kEccCodewordBits; ++bit) {
      EccCodeword code = ecc_encode(word);
      ecc_flip_bit(code, bit);
      EXPECT_EQ(ecc_decode(code).data, word);
    }
  }
}

// --------------------------------------------------------- fault maps

TEST(FaultMap, ZeroDensityIsEmpty) {
  const FaultMap map =
      generate_fault_map({32, 32}, FaultConfig{}, /*seed=*/5);
  EXPECT_EQ(map.total(), 0u);
}

TEST(FaultMap, DensitiesProduceRoughlyProportionalCounts) {
  const FaultConfig config = FaultConfig::with_total_density(0.08);
  const FaultMap map = generate_fault_map({128, 128}, config, 7);
  const auto n = static_cast<double>(map.geometry().cell_count());
  const std::size_t stuck = map.count(FaultType::kStuckAtZero) +
                            map.count(FaultType::kStuckAtOne);
  EXPECT_NEAR(static_cast<double>(stuck) / n, 0.30 * 0.08, 0.01);
  EXPECT_NEAR(static_cast<double>(map.total()) / n, 0.9 * 0.08, 0.02);
}

TEST(FaultMap, BitIdenticalAcrossThreadCounts) {
  const FaultConfig config = FaultConfig::with_total_density(0.05);
  const FaultMap serial = generate_fault_map({64, 64}, config, 11);
  for (const std::size_t threads : {2u, 8u}) {
    engine::ThreadPool pool(threads);
    const FaultMap parallel = generate_fault_map({64, 64}, config, 11,
                                                 &pool);
    ASSERT_EQ(parallel.total(), serial.total());
    for (std::size_t r = 0; r < 64; ++r) {
      for (std::size_t c = 0; c < 64; ++c) {
        ASSERT_EQ(parallel.type_at(r, c), serial.type_at(r, c))
            << r << "," << c << " threads=" << threads;
        ASSERT_EQ(parallel.param_at(r, c), serial.param_at(r, c));
      }
    }
  }
}

TEST(FaultMap, SameSeedReproducesDifferentSeedDiffers) {
  const FaultConfig config = FaultConfig::with_total_density(0.05);
  const FaultMap a = generate_fault_map({64, 64}, config, 3);
  const FaultMap b = generate_fault_map({64, 64}, config, 3);
  const FaultMap c = generate_fault_map({64, 64}, config, 4);
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t col = 0; col < 64; ++col) {
      EXPECT_EQ(a.type_at(r, col), b.type_at(r, col));
      EXPECT_EQ(a.param_at(r, col), b.param_at(r, col));
    }
  }
  bool all_equal = a.total() == c.total();
  for (std::size_t r = 0; r < 64 && all_equal; ++r) {
    for (std::size_t col = 0; col < 64; ++col) {
      if (a.type_at(r, col) != c.type_at(r, col)) {
        all_equal = false;
        break;
      }
    }
  }
  EXPECT_FALSE(all_equal) << "different seeds produced the same map";
}

TEST(FaultPhysics, WeakCellsDisturbMoreAndTwoReadsBeatOne) {
  const MtjParams nominal = MtjParams::paper_calibrated();
  MtjParams weak = nominal;
  weak.i_critical = 0.5 * weak.i_critical;
  const SelfRefConfig selfref;
  const ReadTimingParams timing;
  const double p_nominal = scheme_read_disturb_probability(
      SchemeId::kNondestructive, nominal, selfref, timing);
  const double p_weak = scheme_read_disturb_probability(
      SchemeId::kNondestructive, weak, selfref, timing);
  EXPECT_GT(p_weak, p_nominal);
  // The self-reference schemes apply two read currents; conventional
  // sensing reads once at I_max, so it disturbs a weak cell less.
  const double p_conv = scheme_read_disturb_probability(
      SchemeId::kConventional, weak, selfref, timing);
  EXPECT_GE(p_weak, p_conv);
}

// ------------------------------------------------------ march coverage

namespace {

TestableArray make_clean_array(ArrayGeometry geometry, std::uint64_t seed) {
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());
  return TestableArray(geometry, variation, seed, SelfRefConfig{},
                       Volt(0.0));
}

}  // namespace

TEST(Coverage, StaticFaultsAreFullyDetectedByEveryScheme) {
  FaultMap map(ArrayGeometry{16, 16});
  map.set(0, 3, FaultType::kStuckAtZero);
  map.set(1, 5, FaultType::kStuckAtOne);
  map.set(7, 7, FaultType::kTransitionUp);
  map.set(9, 2, FaultType::kTransitionDown);
  map.set(12, 12, FaultType::kReadDisturb, 1.0);
  for (const SchemeId scheme :
       {SchemeId::kConventional, SchemeId::kDestructive,
        SchemeId::kNondestructive}) {
    TestableArray array = make_clean_array({16, 16}, 21);
    const MarchCoverageReport report =
        run_march_with_faults(array, map, scheme);
    EXPECT_EQ(report.injected_cells, 5u);
    EXPECT_EQ(report.detected_cells, 5u) << scheme_row(scheme).label;
    EXPECT_EQ(report.extra_flags, 0u) << scheme_row(scheme).label;
    EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
    for (const FaultClassCoverage& c : report.classes) {
      EXPECT_DOUBLE_EQ(c.coverage(), 1.0) << to_string(c.type);
    }
  }
}

TEST(Coverage, DriftOutlierIsSchemeDependent) {
  // A drift outlier misreads against the fixed shared reference but is
  // recovered by both self-reference schemes — the paper's argument as
  // a march-test outcome.
  FaultMap map(ArrayGeometry{8, 8});
  map.set(2, 2, FaultType::kDriftOutlier, 1.8);
  {
    TestableArray array = make_clean_array({8, 8}, 33);
    const MarchCoverageReport conventional =
        run_march_with_faults(array, map, SchemeId::kConventional);
    EXPECT_EQ(conventional.detected_cells, 1u);
  }
  for (const SchemeId scheme :
       {SchemeId::kDestructive, SchemeId::kNondestructive}) {
    TestableArray array = make_clean_array({8, 8}, 33);
    const MarchCoverageReport report =
        run_march_with_faults(array, map, scheme);
    EXPECT_EQ(report.detected_cells, 0u) << scheme_row(scheme).label;
  }
}

TEST(Coverage, RetentionDecayIsCaught) {
  FaultMap map(ArrayGeometry{8, 8});
  map.set(0, 0, FaultType::kRetention);  // decay after one array sweep
  TestableArray array = make_clean_array({8, 8}, 41);
  const MarchCoverageReport report =
      run_march_with_faults(array, map, SchemeId::kNondestructive);
  EXPECT_EQ(report.detected_cells, 1u);
}

TEST(Coverage, GeneratedMapCoverageIsReported) {
  const FaultConfig config = FaultConfig::with_total_density(0.05);
  const FaultMap map = generate_fault_map({32, 32}, config, 13);
  ASSERT_GT(map.total(), 0u);
  TestableArray array = make_clean_array({32, 32}, 13);
  const MarchCoverageReport report =
      run_march_with_faults(array, map, SchemeId::kNondestructive);
  EXPECT_EQ(report.operations, 10u * 32u * 32u);  // March C-
  EXPECT_GT(report.coverage(), 0.5);
  std::size_t classes_injected = 0;
  for (const FaultClassCoverage& c : report.classes) {
    classes_injected += c.injected;
  }
  EXPECT_EQ(classes_injected, report.injected_cells);
}

// ------------------------------------------------------- traffic hook

namespace {

engine::TrafficConfig small_traffic() {
  engine::TrafficConfig cfg;
  cfg.requests = 5000;
  cfg.banks = 4;
  cfg.seed = 42;
  return cfg;
}

}  // namespace

TEST(TrafficFaults, NullHookAndInertModelAreBitIdentical) {
  // The zero-cost-when-off contract: no hook, and a hook that never
  // fires (BER 0, no ECC), must produce bit-identical reports.
  const engine::TrafficReport base = engine::run_traffic(small_traffic());

  TrafficFaultConfig fc;
  fc.raw_ber = 0.0;
  fc.ecc = false;
  TrafficFaultModel model(fc);
  engine::TrafficConfig cfg = small_traffic();
  cfg.faults = &model;
  const engine::TrafficReport with_hook = engine::run_traffic(cfg);

  EXPECT_FALSE(base.faults_enabled);
  EXPECT_TRUE(with_hook.faults_enabled);
  EXPECT_EQ(with_hook.faults.retries, 0u);
  EXPECT_EQ(base.makespan.value(), with_hook.makespan.value());
  EXPECT_EQ(base.mean_latency.value(), with_hook.mean_latency.value());
  EXPECT_EQ(base.p99_latency.value(), with_hook.p99_latency.value());
  EXPECT_EQ(base.total_energy.value(), with_hook.total_energy.value());
  EXPECT_EQ(base.peak_queue_depth, with_hook.peak_queue_depth);
}

TEST(TrafficFaults, EccCorrectsAndChargesLatency) {
  TrafficFaultConfig fc;
  fc.raw_ber = 2e-3;  // ~0.14 errors per 72-bit word
  fc.ecc = true;
  fc.max_attempts = 3;
  fc.retry_latency = Second(30e-9);
  fc.retry_energy = Joule(1e-12);
  TrafficFaultModel model(fc);
  engine::TrafficConfig cfg = small_traffic();
  cfg.faults = &model;
  const engine::TrafficReport r = engine::run_traffic(cfg);
  EXPECT_TRUE(r.faults_enabled);
  EXPECT_GT(r.faults.raw_bit_errors, 0u);
  EXPECT_GT(r.faults.corrected_words, 0u);
  EXPECT_EQ(r.faults.silent_corruptions, 0u);  // ECC detects everything
  EXPECT_GT(r.faults.extra_latency.value(), 0.0);

  const engine::TrafficReport base = engine::run_traffic(small_traffic());
  EXPECT_GT(r.mean_latency.value(), base.mean_latency.value());
  EXPECT_GT(r.total_energy.value(), base.total_energy.value());
}

TEST(TrafficFaults, WithoutEccErrorsAreSilentAndNeverRetried) {
  TrafficFaultConfig fc;
  fc.raw_ber = 1e-2;
  fc.ecc = false;
  fc.max_attempts = 5;  // irrelevant without detection
  TrafficFaultModel model(fc);
  engine::TrafficConfig cfg = small_traffic();
  cfg.faults = &model;
  const engine::TrafficReport r = engine::run_traffic(cfg);
  EXPECT_GT(r.faults.silent_corruptions, 0u);
  EXPECT_EQ(r.faults.retries, 0u);
  EXPECT_EQ(r.faults.corrected_words, 0u);
  EXPECT_EQ(r.faults.uncorrectable_words, 0u);
}

TEST(TrafficFaults, OutcomeDependsOnlyOnRequestId) {
  TrafficFaultConfig fc;
  fc.raw_ber = 5e-3;
  fc.ecc = true;
  TrafficFaultModel a(fc);
  TrafficFaultModel b(fc);
  // Query in different orders: outcomes must match per id.
  const auto oa = a.read_outcome(7);
  (void)b.read_outcome(3);
  (void)b.read_outcome(99);
  const auto ob = b.read_outcome(7);
  EXPECT_EQ(oa.attempts, ob.attempts);
  EXPECT_EQ(oa.raw_bit_errors, ob.raw_bit_errors);
  EXPECT_EQ(oa.extra_latency.value(), ob.extra_latency.value());
}

// ------------------------------------------------------ yield overlay

TEST(YieldOverlay, KeepPerBitMarginsChangesNoOtherField) {
  YieldConfig cfg;
  cfg.geometry = {32, 32};
  cfg.max_scatter_points = 1;
  const YieldResult plain = run_yield_experiment(cfg);
  YieldConfig keep = cfg;
  keep.keep_per_bit_margins = true;
  const YieldResult kept = run_yield_experiment(keep);
  EXPECT_TRUE(plain.conventional.per_bit_min_margin.empty());
  EXPECT_EQ(kept.conventional.per_bit_min_margin.size(), 32u * 32u);
  EXPECT_EQ(plain.conventional.failures, kept.conventional.failures);
  EXPECT_EQ(plain.nondestructive.failures, kept.nondestructive.failures);
  EXPECT_EQ(plain.conventional.sm0_stats.mean(),
            kept.conventional.sm0_stats.mean());
  EXPECT_EQ(plain.shared_v_ref.value(), kept.shared_v_ref.value());
  EXPECT_EQ(plain.conventional.scatter.size(),
            kept.conventional.scatter.size());
}

TEST(YieldOverlay, ZeroFaultsStillReportsTransientNoiseFloor) {
  YieldConfig cfg;
  cfg.geometry = {16, 16};
  cfg.variation = VariationParams::none();
  cfg.max_scatter_points = 1;
  const FaultYieldResult r = run_yield_with_faults(
      cfg, FaultConfig{}, BerConfig{});
  EXPECT_EQ(r.faulty_bits, 0u);
  EXPECT_EQ(r.scheme(SchemeId::kNondestructive).hard_bit_fraction, 0.0);
  // Margins are tens of millivolts against 2 mV noise: tiny but
  // positive error probability.
  EXPECT_GT(r.scheme(SchemeId::kNondestructive).raw_ber, 0.0);
  EXPECT_LT(r.scheme(SchemeId::kNondestructive).raw_ber, 1e-6);
}

TEST(YieldOverlay, EccAndRetriesReduceWordErrors) {
  YieldConfig cfg;
  cfg.geometry = {32, 32};
  // SECDED only helps when expected errors per word are well below 1:
  // no process variation (hard faults ~0.6 %/bit dominate) plus a 5 mV
  // comparator noise against ~12 mV margins (~0.8 %/bit transient, the
  // component retries scrub).
  cfg.variation = VariationParams::none();
  cfg.max_scatter_points = 1;
  const FaultConfig faults = FaultConfig::with_total_density(0.02);

  BerConfig no_ecc;
  no_ecc.ecc = false;
  no_ecc.noise_sigma = Volt(5e-3);
  BerConfig ecc1;
  ecc1.ecc = true;
  ecc1.noise_sigma = Volt(5e-3);
  BerConfig ecc3 = ecc1;
  ecc3.read_attempts = 3;

  const FaultYieldResult raw = run_yield_with_faults(cfg, faults, no_ecc);
  const FaultYieldResult corrected =
      run_yield_with_faults(cfg, faults, ecc1);
  const FaultYieldResult retried = run_yield_with_faults(cfg, faults, ecc3);

  // Same injection: the raw BER is an ECC-independent property.
  EXPECT_DOUBLE_EQ(raw.scheme(SchemeId::kNondestructive).raw_ber,
                   corrected.scheme(SchemeId::kNondestructive).raw_ber);
  EXPECT_GT(raw.scheme(SchemeId::kNondestructive).raw_ber, 0.0);
  // ECC strictly improves the residual BER; retries improve the WER
  // further (they scrub the transient component).
  EXPECT_LT(corrected.scheme(SchemeId::kNondestructive).post_ecc_ber,
            raw.scheme(SchemeId::kNondestructive).post_ecc_ber);
  EXPECT_LE(retried.scheme(SchemeId::kNondestructive).post_ecc_wer,
            corrected.scheme(SchemeId::kNondestructive).post_ecc_wer);
}

TEST(YieldOverlay, DriftHitsOnlyExternallyReferencedSchemes) {
  YieldConfig cfg;
  cfg.geometry = {32, 32};
  cfg.variation = VariationParams::none();
  cfg.max_scatter_points = 1;
  FaultConfig faults;
  faults.drift_density = 0.05;
  const FaultYieldResult r =
      run_yield_with_faults(cfg, faults, BerConfig{});
  EXPECT_GT(r.scheme(SchemeId::kConventional).hard_bit_fraction, 0.0);
  EXPECT_GT(r.scheme(SchemeId::kReferenceCell).hard_bit_fraction, 0.0);
  EXPECT_EQ(r.scheme(SchemeId::kDestructive).hard_bit_fraction, 0.0);
  EXPECT_EQ(r.scheme(SchemeId::kNondestructive).hard_bit_fraction, 0.0);
  EXPECT_GT(r.scheme(SchemeId::kConventional).raw_ber,
            r.scheme(SchemeId::kNondestructive).raw_ber);
}

TEST(YieldOverlay, ThreadCountInvariant) {
  YieldConfig cfg;
  cfg.geometry = {32, 32};
  cfg.max_scatter_points = 1;
  const FaultConfig faults = FaultConfig::with_total_density(0.03);
  const BerConfig ber;
  const FaultYieldResult serial = run_yield_with_faults(cfg, faults, ber);
  engine::ThreadPool pool(4);
  const FaultYieldResult parallel =
      run_yield_with_faults(cfg, faults, ber, &pool);
  EXPECT_EQ(serial.faulty_bits, parallel.faulty_bits);
  EXPECT_EQ(serial.scheme(SchemeId::kNondestructive).raw_ber,
            parallel.scheme(SchemeId::kNondestructive).raw_ber);
  EXPECT_EQ(serial.scheme(SchemeId::kConventional).post_ecc_wer,
            parallel.scheme(SchemeId::kConventional).post_ecc_wer);
}

// --------------------------------------------- TestableArray dynamics

TEST(TestableArrayFaults, ReadDisturbFlipsOnEverySense) {
  TestableArray array = make_clean_array({4, 4}, 5);
  array.inject(1, 1, FaultType::kReadDisturb);
  array.write(1, 1, false);
  EXPECT_TRUE(array.sense(1, 1, SchemeId::kNondestructive));
  EXPECT_FALSE(array.sense(1, 1, SchemeId::kNondestructive));
  EXPECT_TRUE(array.sense(1, 1, SchemeId::kNondestructive));
}

TEST(TestableArrayFaults, RetentionDecaysAfterHorizon) {
  TestableArray array = make_clean_array({4, 4}, 6);
  array.inject(0, 0, FaultType::kRetention, /*param=*/3.0);
  array.write(0, 0, true);
  EXPECT_TRUE(array.sense(0, 0, SchemeId::kNondestructive));  // op +1
  EXPECT_TRUE(array.sense(0, 0, SchemeId::kNondestructive));  // op +2
  // Third operation since the write: the horizon (3 ops) elapses.
  EXPECT_FALSE(array.sense(0, 0, SchemeId::kNondestructive));
}

TEST(TestableArrayFaults, DriftOutlierMisreadsConventionalOnly) {
  TestableArray array = make_clean_array({4, 4}, 7);
  array.inject(2, 2, FaultType::kDriftOutlier, 1.8);
  array.write(2, 2, false);
  EXPECT_TRUE(array.read(2, 2, SchemeId::kConventional));  // misread
  EXPECT_FALSE(array.read(2, 2, SchemeId::kDestructive));
  EXPECT_FALSE(array.read(2, 2, SchemeId::kNondestructive));
}

TEST(TestableArrayFaults, OperationsCountReadsAndWrites) {
  TestableArray array = make_clean_array({4, 4}, 8);
  EXPECT_EQ(array.operations(), 0u);
  array.write(0, 0, true);
  (void)array.sense(0, 0, SchemeId::kNondestructive);
  EXPECT_EQ(array.operations(), 2u);
}
