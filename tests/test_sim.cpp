// Integration tests of the sim layer: circuit-level read (Fig. 10),
// yield Monte Carlo (Fig. 11), cost comparison and power-failure
// injection (Sec. V), timing diagram (Fig. 9).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/sim/throughput.hpp"
#include "sttram/sim/timing_diagram.hpp"
#include "sttram/sim/timing_energy.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

TEST(SpiceRead, ResolvesStoredOne) {
  SpiceReadConfig cfg;
  cfg.state = MtjState::kAntiParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  EXPECT_TRUE(r.value);
  // Circuit-level margin should be in the same decade as the analytic
  // 12.6 mV (divider loading, leakage and sampling error shave a bit).
  EXPECT_GT(r.margin.value(), 4e-3);
  EXPECT_LT(r.margin.value(), 30e-3);
}

TEST(SpiceRead, ResolvesStoredZero) {
  SpiceReadConfig cfg;
  cfg.state = MtjState::kParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  EXPECT_FALSE(r.value);
  EXPECT_GT(r.margin.value(), 4e-3);
}

TEST(SpiceRead, CompletesWithinFifteenNanoseconds) {
  // The paper's Fig. 10: "the whole read operation can complete in about
  // 15 ns".
  SpiceReadConfig cfg;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  EXPECT_LE(r.decision_time.value(), 15e-9);
  EXPECT_GT(r.settle_read1.value(), 0.0);
  EXPECT_GT(r.settle_read2.value(), 0.0);
  // Both comparator inputs settle before the sense instant.
  EXPECT_LT(cfg.t_read1_on + r.settle_read1.value(), cfg.t_sense);
  EXPECT_LT(cfg.t_read2_on + r.settle_read2.value(), cfg.t_sense);
}

TEST(SpiceRead, DividerDoesNotLoadBitline) {
  // Sec. V: the high-impedance divider draws negligible current, so the
  // second-read BL voltage matches the analytic I2 * (R + R_T) within a
  // couple of percent.
  SpiceReadConfig cfg;
  cfg.state = MtjState::kAntiParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  const double v_bl2 = r.waves.voltage_at(r.n_bl, cfg.t_sense);
  const LinearRiModel model(cfg.mtj);
  const LinearRegionNmos nmos = LinearRegionNmos::with_on_resistance(
      Ohm(917.0), Volt(cfg.vdd), Volt(cfg.nmos_vth));
  const double expected =
      cfg.selfref.i_max.value() *
      (model.resistance(MtjState::kAntiParallel, cfg.selfref.i_max).value() +
       nmos.resistance(cfg.selfref.i_max).value() + cfg.r_bitline);
  EXPECT_NEAR(v_bl2, expected, 0.02 * expected);
  // And the divider output is alpha * V_BL2.
  const double v_bo = r.waves.voltage_at(r.n_bo, cfg.t_sense);
  EXPECT_NEAR(v_bo, cfg.selfref.alpha * v_bl2, 0.01 * v_bl2);
}

TEST(SpiceRead, SampledVoltageHeldOnC1AfterSwitchOpens) {
  SpiceReadConfig cfg;
  cfg.state = MtjState::kAntiParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  const double at_open = r.waves.voltage_at(r.n_c1, cfg.t_read1_off);
  const double at_sense = r.waves.voltage_at(r.n_c1, cfg.t_sense);
  // Droop across the hold window is far below the sense margin.
  EXPECT_NEAR(at_sense, at_open, 1e-3);
}

TEST(SpiceRead, LeakageShiftIsSmall) {
  // Doubling the unselected-cell leakage must not flip the decision and
  // only perturbs the margin slightly.
  SpiceReadConfig nominal;
  nominal.state = MtjState::kAntiParallel;
  SpiceReadConfig leaky = nominal;
  leaky.r_off_per_cell = nominal.r_off_per_cell / 4.0;
  const SpiceReadResult a = simulate_nondestructive_read(nominal);
  const SpiceReadResult b = simulate_nondestructive_read(leaky);
  EXPECT_TRUE(a.value);
  EXPECT_TRUE(b.value);
  EXPECT_NEAR(a.margin.value(), b.margin.value(), 3e-3);
}

TEST(DestructiveSpiceRead, ResolvesBothValuesAndRestores) {
  for (const MtjState s : {MtjState::kAntiParallel, MtjState::kParallel}) {
    DestructiveSpiceConfig cfg;
    cfg.state = s;
    const DestructiveSpiceResult r = simulate_destructive_read(cfg);
    EXPECT_EQ(r.value, s == MtjState::kAntiParallel);
    EXPECT_TRUE(r.data_restored);
    EXPECT_EQ(r.final_state, s);
    // The destructive comparison (C1 vs C2) enjoys the large margin the
    // analytic model predicts (~65 mV at the equal-margin beta).
    EXPECT_GT(r.margin.value(), 40e-3);
  }
}

TEST(DestructiveSpiceRead, SlowerThanNondestructive) {
  DestructiveSpiceConfig d;
  d.state = MtjState::kAntiParallel;
  const DestructiveSpiceResult rd = simulate_destructive_read(d);
  SpiceReadConfig n;
  n.state = MtjState::kAntiParallel;
  const SpiceReadResult rn = simulate_nondestructive_read(n);
  // The two write pulses push the destructive completion well past the
  // nondestructive read (paper Sec. V).
  EXPECT_GT(rd.completion_time.value(), 1.5 * rn.decision_time.value());
}

TEST(DestructiveSpiceRead, StoredZeroSkipsWriteBack) {
  DestructiveSpiceConfig cfg;
  cfg.state = MtjState::kParallel;
  const DestructiveSpiceResult r = simulate_destructive_read(cfg);
  EXPECT_FALSE(r.value);
  // Completion at the sense instant: no restore pulse needed for a 0.
  EXPECT_NEAR(r.completion_time.value(), cfg.t_sense, 1e-12);
}

TEST(Yield, SmallArrayDeterministic) {
  YieldConfig cfg;
  cfg.geometry = {16, 16};
  const YieldResult a = run_yield_experiment(cfg);
  const YieldResult b = run_yield_experiment(cfg);
  EXPECT_EQ(a.conventional.failures, b.conventional.failures);
  EXPECT_EQ(a.nondestructive.failures, b.nondestructive.failures);
  EXPECT_EQ(a.conventional.bits, 256u);
}

TEST(Yield, ScatterKeepsAtMostMaxPoints) {
  // Every ceil(cells / max)-th bit: never more than max points, exactly
  // max when it divides the cell count, all bits when max is 0 or no
  // smaller than the array.
  struct Case {
    ArrayGeometry geometry;
    std::size_t max;
    std::size_t expected;
  };
  for (const Case& c : {Case{{128, 128}, 1000, 964}, Case{{16, 16}, 7, 7},
                        Case{{16, 16}, 100, 86}, Case{{128, 128}, 1024, 1024},
                        Case{{16, 16}, 8, 8}, Case{{16, 16}, 1, 1},
                        Case{{16, 16}, 0, 256}, Case{{16, 16}, 256, 256},
                        Case{{16, 16}, 1000, 256}}) {
    YieldConfig cfg;
    cfg.geometry = c.geometry;
    cfg.max_scatter_points = c.max;
    const YieldResult r = run_yield_experiment(cfg);
    for (const SchemeRow& row : kSchemeTable) {
      const SchemeYield& y = r.scheme(row.id);
      if (c.max > 0) {
        EXPECT_LE(y.scatter.size(), c.max);
      }
      EXPECT_EQ(y.scatter.size(), c.expected)
          << c.geometry.rows << "x" << c.geometry.cols << " max " << c.max;
    }
  }
}

TEST(Yield, SelfReferenceSchemesBeatConventional) {
  YieldConfig cfg;
  cfg.geometry = {64, 64};  // 4 kb keeps the test fast
  const YieldResult r = run_yield_experiment(cfg);
  // The paper's Fig. 11: conventional sensing loses ~1 % of bits; both
  // self-reference schemes read every bit.
  EXPECT_GT(r.conventional.failures, 0u);
  EXPECT_EQ(r.destructive.failures, 0u);
  EXPECT_LE(r.nondestructive.failures, r.conventional.failures / 5);
}

TEST(Yield, NoVariationMeansNoFailures) {
  YieldConfig cfg;
  cfg.geometry = {16, 16};
  cfg.variation = VariationParams::none();
  cfg.sigma_access = 0.0;
  cfg.sigma_beta = 0.0;
  cfg.sigma_alpha = 0.0;
  const YieldResult r = run_yield_experiment(cfg);
  EXPECT_EQ(r.conventional.failures, 0u);
  EXPECT_EQ(r.destructive.failures, 0u);
  EXPECT_EQ(r.nondestructive.failures, 0u);
  // Shared-reference window equals the full nominal separation.
  EXPECT_GT(r.shared_reference_window.value(), 0.1);
}

TEST(Yield, FailureRateGrowsWithVariation) {
  YieldConfig cfg;
  cfg.geometry = {48, 48};
  const auto sweep = sweep_variation(cfg, {0.02, 0.08, 0.16});
  ASSERT_EQ(sweep.size(), 3u);
  const std::size_t conv = scheme_index(SchemeId::kConventional);
  EXPECT_LE(sweep[0].failure_rate[conv], sweep[1].failure_rate[conv]);
  EXPECT_LE(sweep[1].failure_rate[conv], sweep[2].failure_rate[conv]);
  // Self-reference stays clean far beyond the conventional breaking
  // point.
  EXPECT_EQ(sweep[1].failure_rate[scheme_index(SchemeId::kDestructive)],
            0.0);
}

TEST(CostComparison, NondestructiveFasterAndNoWrites) {
  const CostComparisonConfig cfg;
  const auto costs = compare_scheme_costs(cfg);
  ASSERT_EQ(costs.size(), 3u);
  const SchemeCost& conv = costs[0];
  const SchemeCost& destructive = costs[1];
  const SchemeCost& nondes = costs[2];
  // Write pulses: destructive needs erase (+ write-back for a stored 1);
  // the others never write.
  EXPECT_EQ(conv.write_pulses_read1, 0u);
  EXPECT_EQ(nondes.write_pulses_read0, 0u);
  EXPECT_EQ(nondes.write_pulses_read1, 0u);
  EXPECT_EQ(destructive.write_pulses_read1, 2u);
  EXPECT_EQ(destructive.write_pulses_read0, 1u);
  // Latency ordering: conventional < nondestructive < destructive.
  EXPECT_LT(conv.worst_latency(), nondes.worst_latency());
  EXPECT_LT(nondes.worst_latency(), destructive.worst_latency());
  // The paper's headline: the nondestructive read finishes in ~15 ns.
  EXPECT_LT(nondes.worst_latency().value(), 16e-9);
  // Energy ordering: eliminating two write pulses saves most energy.
  EXPECT_LT(nondes.worst_energy().value(),
            0.5 * destructive.worst_energy().value());
}

TEST(PowerFailure, DestructiveLosesDataInTheWindow) {
  const CostComparisonConfig cfg;
  const auto outcomes = power_failure_experiment(cfg);
  bool destructive_lost_any = false;
  for (const auto& o : outcomes) {
    if (o.scheme == "nondestructive self-ref") {
      EXPECT_TRUE(o.data_survived)
          << "nondestructive read lost data after phase " << o.phase_name;
    } else if (o.stored_bit) {
      // A stored 1 is at risk between erase and write-back.
      if (!o.data_survived) destructive_lost_any = true;
      if (o.fail_after_phase < DestructiveReadOperation::erase_phase_index()) {
        EXPECT_TRUE(o.data_survived);
      }
    }
  }
  EXPECT_TRUE(destructive_lost_any);
}

TEST(SpiceRead, DecisionsCorrectAroundCircuitTunedBeta) {
  // Circuit-level property: betas within +-1.5 % of the circuit-tuned
  // optimum resolve both data values correctly.  (The circuit's valid
  // window is shifted from the ideal-R_T analytic window by the series
  // wire, the NMOS current dependence and the C1 sampling undershoot —
  // exactly why the paper trims beta on the tester.)
  const double beta0 = circuit_tuned_beta(SpiceReadConfig{});
  EXPECT_GT(beta0, 1.9);
  EXPECT_LT(beta0, 2.3);
  for (const double scale : {0.985, 1.0, 1.015}) {
    for (const MtjState s :
         {MtjState::kAntiParallel, MtjState::kParallel}) {
      SpiceReadConfig cfg;
      cfg.beta = beta0 * scale;
      cfg.state = s;
      const SpiceReadResult r = simulate_nondestructive_read(cfg);
      EXPECT_EQ(r.value, s == MtjState::kAntiParallel)
          << "beta=" << cfg.beta << " state=" << to_string(s);
    }
  }
}

// Exact circuit-level read outputs, recorded as hex floats.  Every other
// SPICE test checks within a tolerance; this one pins each bit of the
// Fig. 10 and Fig. 3 reads, so a solver change that claims to keep the
// results (workspace reuse, LU loop order, waveform storage) must keep
// these.  A change that moves them on purpose re-records the table in a
// reviewed diff.  Rows: {nominal, two MtjVariationModel draws} x
// {nondestructive, destructive} x {P, AP}.
struct PinnedRead {
  double v_c1;
  double v_ref;  ///< V_BO (nondestructive) or V_C2 (destructive)
  double margin;
  double settle_read1;  ///< nondestructive only, 0 otherwise
  double settle_read2;  ///< nondestructive only, 0 otherwise
  std::size_t samples;
  std::vector<double> final_sample;
  std::array<std::uint64_t, 5> counters;  ///< kSolverCounters deltas
};

constexpr const char* kSolverCounters[5] = {
    "spice.newton.iterations", "spice.newton.solves",
    "spice.newton.factorizations", "spice.transient.steps_accepted",
    "spice.transient.steps_rejected"};

const PinnedRead kPinnedReads[] = {
    {0x1.e50299efa8af4p-3, 0x1.013da97a17a86p-2, 0x1.d78b90486a18p-7, 0x1.79bc1dd53ab01p-28, 0x1.23492348de9dp-29, 609,
     {0x1.8c2dc04cf7b14p-3, 0x1.628f3a8c5b444p-3, 0x1.39b9ec7577513p-4, 0x1.3333333333333p+0, 0x1.e50299e9bba8ap-3, 0x1.8c28ae227b55ep-3, 0x1.8c282c526e1f6p-4, -0x1.51c51ce3718e1p-40},
     {1530, 609, 1530, 608, 0}},
    {0x1.50f8d7300bde8p-2, 0x1.474d0f335e0b9p-2, 0x1.3578ff95ba5ep-7, 0x1.a5c82e4519dc7p-28, 0x1.2ee89d66e5a74p-29, 609,
     {0x1.425f4a3ed87eep-2, 0x1.2a7d5b91dcde7p-2, 0x1.6b09b2282fe2fp-4, 0x1.3333333333333p+0, 0x1.50f8d727fe62bp-2, 0x1.425b29ec2eb0ep-2, 0x1.425ac04b20961p-3, -0x1.51c51ce3718e1p-40},
     {1654, 609, 1654, 608, 0}},
    {0x1.bc886e084c534p-2, 0x1.feb78a8de913ep-2, 0x1.08bc721673028p-4, 0x0p+0, 0x0p+0, 1022,
     {0x1.2fdb7a3e95e52p-23, 0x1.0f59e0154d34ap-23, 0x1.d1c0f5d1a3df8p-25, 0x1.3333333333333p+0, 0x1.bc886cc5cb805p-2, 0x1.feb7891a8ce28p-2, -0x1.51c51ce3718e1p-40},
     {2735, 1022, 2735, 1021, 0}},
    {0x1.20924437a3c83p-1, 0x1.feb78ae93ee7dp-2, 0x1.09b3f61822a24p-4, 0x0p+0, 0x0p+0, 1024,
     {0x1.7222b87b8b257p-2, 0x1.5672be6573dd1p-2, 0x1.a954b47c16e86p-4, 0x1.3333333333333p+0, 0x1.20924450487cdp-1, 0x1.feb78b4b9159cp-2, -0x1.51c51ce3718e1p-40},
     {2942, 1024, 2942, 1023, 0}},
    {0x1.eaaec96fad031p-3, 0x1.04873257803fbp-2, 0x1.e5f9b3f537c5p-7, 0x1.7c36572337ee3p-28, 0x1.26a17c3388cecp-29, 609,
     {0x1.962bd039b1ca2p-3, 0x1.6c13bb6eca705p-3, 0x1.3d816d3f1b8a7p-4, 0x1.3333333333333p+0, 0x1.eaaec969e404bp-3, 0x1.96269d5128f88p-3, 0x1.9626183aedbfbp-4, -0x1.51c51ce3718e1p-40},
     {1532, 609, 1532, 608, 0}},
    {0x1.564c91f6728f1p-2, 0x1.4caa0c440c6dbp-2, 0x1.3450b64cc42cp-7, 0x1.a7e781b0aed6ap-28, 0x1.32b14d4ec80dcp-29, 609,
     {0x1.4b78fb44465d2p-2, 0x1.33569e31e5a7ep-2, 0x1.6f1d88e618ad9p-4, 0x1.3333333333333p+0, 0x1.564c91ee61a82p-2, 0x1.4b74bd1fde8cdp-2, 0x1.4b7450837681dp-3, -0x1.51c51ce3718e1p-40},
     {1662, 609, 1662, 608, 0}},
    {0x1.c0fee98fa9dc9p-2, 0x1.0290238a3923dp-1, 0x1.1085761321ac4p-4, 0x0p+0, 0x0p+0, 1022,
     {0x1.85001b5df4121p-23, 0x1.5bf2e410b18f8p-23, 0x1.2618aefabf5acp-24, 0x1.3333333333333p+0, 0x1.c0fee84a15dc9p-2, 0x1.029022ce498e2p-1, -0x1.51c51ce3718e1p-40},
     {2739, 1022, 2739, 1021, 0}},
    {0x1.249e2568a3472p-1, 0x1.029023c4c6d9p-1, 0x1.10700d1ee371p-4, 0x0p+0, 0x0p+0, 1024,
     {0x1.82241ee1dda0dp-2, 0x1.65b63926230bap-2, 0x1.b5a4c21f951f1p-4, 0x1.3333333333333p+0, 0x1.249e2582b9f64p-1, 0x1.029023f801259p-1, -0x1.51c51ce3718e1p-40},
     {2945, 1024, 2945, 1023, 0}},
    {0x1.df726d1ea81aap-3, 0x1.fb82f58919956p-3, 0x1.c10886a717acp-7, 0x1.770cc561a3693p-28, 0x1.1fadf5f1184e8p-29, 609,
     {0x1.81a5e7288395bp-3, 0x1.588a3318a95a5p-3, 0x1.35aa27250af0ep-4, 0x1.3333333333333p+0, 0x1.df726d187dde8p-3, 0x1.81a0f77f90148p-3, 0x1.81a07922d6918p-4, -0x1.51c51ce3718e1p-40},
     {1528, 609, 1528, 608, 0}},
    {0x1.49e44107931c6p-2, 0x1.40559c5148071p-2, 0x1.31d496c962aap-7, 0x1.a2cbe0da78b4p-28, 0x1.2a94c32f79f1p-29, 609,
     {0x1.367595eb075b2p-2, 0x1.1ee5c031431c3p-2, 0x1.65d9db95224f2p-4, 0x1.3333333333333p+0, 0x1.49e440ff91fabp-2, 0x1.36719ca16311fp-2, 0x1.367136e79aa49p-3, -0x1.51c51ce3718e1p-40},
     {1644, 609, 1644, 608, 0}},
    {0x1.b8f8fbfea4c9bp-2, 0x1.f7eb5383d5e6bp-2, 0x1.f792bc2988e8p-5, 0x0p+0, 0x0p+0, 1022,
     {0x1.d01c514923ba3p-24, 0x1.9dba6516614d4p-24, 0x1.68f186b5e84e8p-25, 0x1.3333333333333p+0, 0x1.b8f8fabe8a861p-2, 0x1.f7eb5215440c5p-2, -0x1.51c51ce3718e1p-40},
     {2729, 1022, 2729, 1021, 0}},
    {0x1.1bb4f437ad718p-1, 0x1.f7eb53c86b9c8p-2, 0x1.fbf4a5377a34p-5, 0x0p+0, 0x0p+0, 1024,
     {0x1.5e5447063e824p-2, 0x1.4387e8a73616fp-2, 0x1.9aa5d5cc914ffp-4, 0x1.3333333333333p+0, 0x1.1bb4f44e78b75p-1, 0x1.f7eb5424e13d7p-2, -0x1.51c51ce3718e1p-40},
     {2937, 1024, 2937, 1023, 0}}
};

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << ": got " << std::hexfloat << got << ", want " << want;
}

TEST(SpiceRead, OutputsAreBitPinned) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams{});
  Xoshiro256 rng(2010);
  std::vector<MtjParams> devices{model.nominal()};
  devices.push_back(model.sample(rng));
  devices.push_back(model.sample(rng));

  auto& registry = obs::Registry::instance();
  obs::set_metrics_enabled(true);
  std::size_t row = 0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    for (const bool destructive : {false, true}) {
      for (const MtjState state :
           {MtjState::kParallel, MtjState::kAntiParallel}) {
        const PinnedRead& want = kPinnedReads[row++];
        const std::string what =
            "device " + std::to_string(d) +
            (destructive ? " destructive " : " nondestructive ") +
            std::string(to_string(state));
        std::array<std::uint64_t, 5> before{};
        for (std::size_t k = 0; k < 5; ++k) {
          before[k] = registry.counter(kSolverCounters[k]).value();
        }
        PinnedRead got{};
        const spice::TransientResult* waves = nullptr;
        SpiceReadResult nd;
        DestructiveSpiceResult de;
        if (destructive) {
          DestructiveSpiceConfig cfg;
          cfg.mtj = devices[d];
          cfg.state = state;
          de = simulate_destructive_read(cfg);
          got.v_c1 = de.v_c1.value();
          got.v_ref = de.v_c2.value();
          got.margin = de.margin.value();
          waves = &de.waves;
        } else {
          SpiceReadConfig cfg;
          cfg.mtj = devices[d];
          cfg.state = state;
          nd = simulate_nondestructive_read(cfg);
          got.v_c1 = nd.v_c1.value();
          got.v_ref = nd.v_bo.value();
          got.margin = nd.margin.value();
          got.settle_read1 = nd.settle_read1.value();
          got.settle_read2 = nd.settle_read2.value();
          waves = &nd.waves;
        }
        for (std::size_t k = 0; k < 5; ++k) {
          got.counters[k] =
              registry.counter(kSolverCounters[k]).value() - before[k];
        }
        expect_bits(got.v_c1, want.v_c1, what + " v_c1");
        expect_bits(got.v_ref, want.v_ref, what + " v_ref");
        expect_bits(got.margin, want.margin, what + " margin");
        expect_bits(got.settle_read1, want.settle_read1,
                    what + " settle_read1");
        expect_bits(got.settle_read2, want.settle_read2,
                    what + " settle_read2");
        ASSERT_EQ(waves->sample_count(), want.samples) << what;
        const auto last = waves->sample(waves->sample_count() - 1);
        ASSERT_EQ(last.size(), want.final_sample.size()) << what;
        for (std::size_t k = 0; k < last.size(); ++k) {
          expect_bits(last[k], want.final_sample[k],
                      what + " final sample [" + std::to_string(k) + "]");
        }
        EXPECT_EQ(got.counters, want.counters) << what;
      }
    }
  }
  obs::set_metrics_enabled(false);
  EXPECT_EQ(row, std::size(kPinnedReads));
}

TEST(Yield, ReferenceCellSitsBetweenConventionalAndSelfRef) {
  YieldConfig cfg;
  cfg.geometry = {64, 64};
  cfg.die_sigma = 0.08;
  cfg.seed = 99;  // off-center die
  const YieldResult r = run_yield_experiment(cfg);
  EXPECT_GT(r.die_factor, 1.0);
  // Die shift breaks the fixed reference hardest; reference cells track
  // it; self-reference is immune.
  EXPECT_GT(r.conventional.failure_rate(),
            r.reference_cell.failure_rate());
  EXPECT_GE(r.reference_cell.failure_rate(),
            r.nondestructive.failure_rate());
  EXPECT_EQ(r.nondestructive.failures, 0u);
}

TEST(Throughput, BandwidthOrderingMatchesLatency) {
  const CostComparisonConfig cost;
  WorkloadParams wl;
  wl.read_fraction = 1.0;
  const auto banks = analyze_bank_performance(cost, wl);
  ASSERT_EQ(banks.size(), 3u);
  // conventional > nondestructive > destructive bandwidth.
  EXPECT_GT(banks[0].peak_bandwidth_mbps, banks[2].peak_bandwidth_mbps);
  EXPECT_GT(banks[2].peak_bandwidth_mbps, banks[1].peak_bandwidth_mbps);
  // Loaded latency exceeds service time (queueing) for every scheme.
  for (const auto& b : banks) {
    EXPECT_GT(b.avg_queue_latency, b.avg_service);
    EXPECT_GT(b.energy_per_bit_pj, 0.0);
  }
}

TEST(Throughput, WriteFractionEqualizesSchemes) {
  // A write-only workload sees the same service time for all schemes
  // (the write path is scheme-independent).
  const CostComparisonConfig cost;
  WorkloadParams wl;
  wl.read_fraction = 0.0;
  const auto banks = analyze_bank_performance(cost, wl);
  EXPECT_NEAR(banks[0].avg_service.value(), banks[1].avg_service.value(),
              1e-15);
  EXPECT_NEAR(banks[1].avg_service.value(), banks[2].avg_service.value(),
              1e-15);
}

TEST(Throughput, QueueingModelMatchesDiscreteEvent) {
  const CostComparisonConfig cost;
  WorkloadParams wl;
  wl.read_fraction = 1.0;
  wl.utilization = 0.5;
  const auto banks = analyze_bank_performance(cost, wl);
  const Second sim = simulate_bank_latency(banks[2], wl, 100000, 11);
  EXPECT_NEAR(sim.value(), banks[2].avg_queue_latency.value(),
              0.1 * banks[2].avg_queue_latency.value());
}

TEST(Throughput, ValidatesParameters) {
  const CostComparisonConfig cost;
  WorkloadParams wl;
  wl.utilization = 1.5;
  EXPECT_THROW(analyze_bank_performance(cost, wl), InvalidArgument);
  wl.utilization = 0.5;
  wl.read_fraction = -0.1;
  EXPECT_THROW(analyze_bank_performance(cost, wl), InvalidArgument);
}

TEST(TimingDiagram, Fig9SignalsPresentAndOrdered) {
  const CostComparisonConfig cfg;
  OneT1JCell cell;
  cell.mtj().force_state(MtjState::kAntiParallel);
  const NondestructiveReadOperation op(
      cfg.selfref,
      NondestructiveSelfReference(MtjParams::paper_calibrated(), Ohm(917.0),
                                  cfg.selfref)
          .paper_beta(),
      cfg.timing);
  const ReadResult r = op.execute(cell);
  const TimingDiagram d = build_timing_diagram(r);
  ASSERT_GE(d.signals.size(), 6u);
  const auto find = [&](const std::string& name) -> const SignalTrace* {
    for (const auto& s : d.signals) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const SignalTrace* slt1 = find("SLT1");
  const SignalTrace* slt2 = find("SLT2");
  const SignalTrace* sen = find("SenEn");
  ASSERT_NE(slt1, nullptr);
  ASSERT_NE(slt2, nullptr);
  ASSERT_NE(sen, nullptr);
  // SLT1 closes before SLT2; SenEn fires after both.
  EXPECT_LT(slt1->asserted.front().second, slt2->asserted.front().first +
                                               Second(1e-12));
  EXPECT_GE(sen->asserted.front().first, slt2->asserted.front().second -
                                             Second(1e-12));
  // The rendered diagram mentions every control signal.
  const std::string text = d.render();
  EXPECT_NE(text.find("WL"), std::string::npos);
  EXPECT_NE(text.find("Data_latch"), std::string::npos);
}

}  // namespace
}  // namespace sttram
