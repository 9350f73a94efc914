// Tests for sttram/sense: the sense amplifier, the sensing schemes'
// margin math (against the written-out closed forms of mc_oracle.cpp),
// the scheme table, the robustness analyzers, and the executable read
// operations — including the core paper invariants as property tests
// over parameter sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include <string>
#include <vector>

#include "mc_oracle.hpp"
#include "sttram/common/error.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/fault/yield_overlay.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/sense/design.hpp"
#include "sttram/sense/latch.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/noise.hpp"
#include "sttram/sense/read_operation.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/sense/sense_amp.hpp"
#include "sttram/sim/march.hpp"
#include "sttram/sim/timing_energy.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

using namespace sttram::literals;

/// Range of relative beta-driver error keeping both margins positive at
/// `beta`: the zeros of the minimum margin on either side of the
/// designed point, inside [-0.9, 4].
Window beta_deviation_window(const SelfReferenceScheme& scheme, double beta) {
  const auto min_margin = [&](double dev) {
    SchemeMismatch mm;
    mm.beta_deviation = dev;
    return scheme.margins(beta, mm).min().value();
  };
  Window w;
  if (min_margin(0.0) <= 0.0) return w;
  w.lo = brent(min_margin, -0.9, 0.0, 1e-12);
  w.hi = brent(min_margin, 0.0, 4.0, 1e-12);
  w.valid = true;
  return w;
}

// --------------------------------------------------------------- SenseAmp

TEST(SenseAmp, DecideRespectsOffset) {
  SenseAmpParams p;
  p.offset = 5.0_mV;
  const SenseAmp amp(p);
  EXPECT_TRUE(amp.decide(Volt(0.110), Volt(0.100)));
  EXPECT_FALSE(amp.decide(Volt(0.104), Volt(0.100)));
  EXPECT_FALSE(amp.decide(Volt(0.100), Volt(0.110)));
}

TEST(SenseAmp, ReliabilityThreshold) {
  const SenseAmp amp;  // 8 mV requirement
  EXPECT_TRUE(amp.reliable(Volt(0.110), Volt(0.100)));
  EXPECT_FALSE(amp.reliable(Volt(0.105), Volt(0.100)));
  EXPECT_TRUE(amp.reliable(Volt(0.100), Volt(0.110)));  // either direction
}

TEST(SenseAmp, LatchIsSticky) {
  SenseAmp amp;
  EXPECT_TRUE(amp.latch(Volt(0.2), Volt(0.1)));
  EXPECT_TRUE(amp.latched());
  EXPECT_FALSE(amp.latch(Volt(0.1), Volt(0.2)));
  EXPECT_FALSE(amp.latched());
}

// ---------------------------------------------------------------- Latch

TEST(LatchDynamics, DecisionTimeIsLogarithmic) {
  const LatchDynamics latch;
  const Second t1 = latch.decision_time(Volt(12e-3));
  const Second t2 = latch.decision_time(Volt(120e-3));
  // 10x more margin saves exactly tau*ln(10).
  EXPECT_NEAR((t1 - t2).value(), 50e-12 * std::log(10.0), 1e-15);
  EXPECT_THROW((void)latch.decision_time(Volt(0.0)), InvalidArgument);
  // A margin at the full swing resolves instantly.
  EXPECT_DOUBLE_EQ(latch.decision_time(Volt(0.6)).value(), 0.0);
  // Negative margins resolve just as fast (other direction).
  EXPECT_EQ(latch.decision_time(Volt(-12e-3)), latch.decision_time(Volt(12e-3)));
}

TEST(LatchDynamics, ThresholdInvertsDecisionTime) {
  const LatchDynamics latch;
  const Volt m(12.6e-3);
  const Second t = latch.decision_time(m);
  EXPECT_NEAR(latch.metastable_threshold(t).value(), m.value(), 1e-12);
}

TEST(LatchDynamics, MetastabilityFallsWithMarginAndTime) {
  const LatchDynamics latch;
  const Second strobe(0.3e-9);
  const double p_small = latch.metastability_probability(Volt(1e-3), strobe);
  const double p_big = latch.metastability_probability(Volt(12e-3), strobe);
  EXPECT_GT(p_small, p_big);
  EXPECT_LT(latch.metastability_probability(Volt(12e-3), Second(0.6e-9)),
            p_big + 1e-18);
  // The paper-scale margin resolves essentially always within 0.5 ns.
  EXPECT_LT(latch.metastability_probability(Volt(12.6e-3), Second(0.5e-9)),
            1e-12);
}

TEST(LatchDynamics, RequiredStrobeMeetsTarget) {
  const LatchDynamics latch;
  for (const double margin : {2e-3, 8e-3, 12.6e-3, 66e-3}) {
    for (const double target : {1e-6, 1e-9}) {
      const Second t = latch.required_strobe(Volt(margin), target);
      const double p = latch.metastability_probability(Volt(margin), t);
      EXPECT_LE(p, target * 1.01)
          << "margin=" << margin << " target=" << target;
    }
  }
  // Smaller margins need longer strobes.
  EXPECT_GT(latch.required_strobe(Volt(2e-3), 1e-9),
            latch.required_strobe(Volt(66e-3), 1e-9));
}

// ----------------------------------------------------------- Margin math

class SchemeFixture : public ::testing::Test {
 protected:
  MtjParams mtj = MtjParams::paper_calibrated();
  Ohm r_t{917.0};
  SelfRefConfig config{};
  DestructiveSelfReference destructive{mtj, r_t, config};
  NondestructiveSelfReference nondestructive{mtj, r_t, config};
};

TEST_F(SchemeFixture, FirstReadVoltageMatchesHandComputation) {
  // beta = 2: I1 = 100 uA; V_BL1(AP) = 100u * (2500 - 300 + 917).
  const Volt v = nondestructive.first_read_voltage(MtjState::kAntiParallel,
                                                   2.0);
  EXPECT_NEAR(v.value(), 100e-6 * (2500.0 - 300.0 + 917.0), 1e-12);
}

TEST_F(SchemeFixture, DestructiveReferenceVoltage) {
  // V_BL2 = I2 (R_L2 + R_T) = 200u * (1210 + 917).
  EXPECT_NEAR(destructive.reference_voltage({}).value(),
              200e-6 * 2127.0, 1e-12);
  SchemeMismatch mm;
  mm.delta_r_t = 100.0_Ohm;
  EXPECT_NEAR(destructive.reference_voltage(mm).value(),
              200e-6 * 2227.0, 1e-12);
}

TEST_F(SchemeFixture, NondestructiveDividerVoltage) {
  // V_BO = alpha * I2 (R_H2 + R_T) for a stored 1.
  EXPECT_NEAR(nondestructive.divider_voltage(MtjState::kAntiParallel, {})
                  .value(),
              0.5 * 200e-6 * 2817.0, 1e-12);
}

TEST_F(SchemeFixture, MarginsAtUnityBetaDegenerate) {
  // beta = 1 means the two reads are identical: the nondestructive SM0
  // goes negative (alpha*V < V) and the destructive SM0 hits zero.
  const SenseMargins md = destructive.margins(1.0);
  EXPECT_NEAR(md.sm0.value(), 0.0, 1e-12);
  EXPECT_GT(md.sm1.value(), 0.0);  // AP vs erased-P still separates
  const SenseMargins mn = nondestructive.margins(1.0);
  EXPECT_LT(mn.sm0.value(), 0.0);
}

TEST_F(SchemeFixture, MismatchLinearityInDeltaR) {
  // SM(dR) must be exactly affine for the linear device law.
  const double beta = 2.13;
  const auto at = [&](double dr) {
    SchemeMismatch mm;
    mm.delta_r_t = Ohm(dr);
    return nondestructive.margins(beta, mm);
  };
  const double s0 = at(100.0).sm0.value() - at(0.0).sm0.value();
  EXPECT_NEAR(at(200.0).sm0.value() - at(0.0).sm0.value(), 2.0 * s0, 1e-15);
  // Slope = +alpha*I2 for SM0, -alpha*I2 for SM1.
  EXPECT_NEAR(s0, 0.5 * 200e-6 * 100.0, 1e-12);
  const double s1 = at(100.0).sm1.value() - at(0.0).sm1.value();
  EXPECT_NEAR(s1, -0.5 * 200e-6 * 100.0, 1e-12);
}

TEST_F(SchemeFixture, BetaDeviationShiftsFirstRead) {
  SchemeMismatch mm;
  mm.beta_deviation = 0.10;  // I1 10 % lower than designed
  const SenseMargins m = nondestructive.margins(2.13, mm);
  const SenseMargins ref = nondestructive.margins(2.13 * 1.10);
  EXPECT_NEAR(m.sm0.value(), ref.sm0.value(), 1e-15);
  EXPECT_NEAR(m.sm1.value(), ref.sm1.value(), 1e-15);
}

TEST_F(SchemeFixture, MarginsScaleWithCommonDeviceFactor) {
  // Self-reference margins scale multiplicatively with a common-mode
  // device factor when R_T scales along — the physical reason the scheme
  // is immune to bit-to-bit variation.
  const double f = 1.3;
  const MtjParams scaled = mtj.scaled(f, 1.0);
  const NondestructiveSelfReference big(scaled, Ohm(917.0 * f), config);
  const SenseMargins m1 = nondestructive.margins(2.13);
  const SenseMargins m2 = big.margins(2.13);
  EXPECT_NEAR(m2.sm0.value(), f * m1.sm0.value(), 1e-12);
  EXPECT_NEAR(m2.sm1.value(), f * m1.sm1.value(), 1e-12);
}

TEST_F(SchemeFixture, ConfigValidation) {
  SelfRefConfig bad;
  bad.alpha = 1.5;
  EXPECT_THROW(NondestructiveSelfReference(mtj, r_t, bad), InvalidArgument);
  bad.alpha = 0.5;
  bad.i_max = Ampere(0.0);
  EXPECT_THROW(DestructiveSelfReference(mtj, r_t, bad), InvalidArgument);
  EXPECT_THROW((void)nondestructive.first_read_current(0.0), InvalidArgument);
}

TEST_F(SchemeFixture, ConventionalSensingMidpointIsSymmetric) {
  const ConventionalSensing conv(mtj, r_t, Ampere(200e-6));
  const SenseMargins m = conv.margins(conv.midpoint_reference());
  EXPECT_NEAR(m.sm0.value(), m.sm1.value(), 1e-15);
  // An off-center reference trades one margin for the other 1:1.
  const SenseMargins shifted =
      conv.margins(conv.midpoint_reference() + 10.0_mV);
  EXPECT_NEAR(shifted.sm0.value(), m.sm0.value() + 10e-3, 1e-12);
  EXPECT_NEAR(shifted.sm1.value(), m.sm1.value() - 10e-3, 1e-12);
}

TEST_F(SchemeFixture, SimmonsModelGivesSameDesignShape) {
  // The scheme math is model-agnostic: on the Simmons law the optimum
  // shifts slightly but the design shape survives.
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(mtj);
  const FixedAccessResistor access(r_t);
  const NondestructiveSelfReference s(simmons, access, config);
  const double beta = s.optimal_beta();
  EXPECT_GT(beta, 1.5);
  EXPECT_LT(beta, 3.5);
  EXPECT_GT(s.margins(beta).min().value(), 5e-3);
}

// Property sweep over beta: margins are positive exactly inside the
// window reported by beta_window().
class BetaWindowProperty
    : public ::testing::TestWithParam<std::tuple<bool, int>> {};

TEST_P(BetaWindowProperty, MarginSignConsistentWithWindow) {
  const bool use_nondes = std::get<0>(GetParam());
  const int step = std::get<1>(GetParam());
  const MtjParams mtj = MtjParams::paper_calibrated();
  const SelfRefConfig config;
  const FixedAccessResistor access(Ohm(917.0));
  const LinearRiModel model(mtj);
  std::unique_ptr<SelfReferenceScheme> scheme;
  if (use_nondes) {
    scheme = std::make_unique<NondestructiveSelfReference>(model, access,
                                                           config);
  } else {
    scheme = std::make_unique<DestructiveSelfReference>(model, access,
                                                        config);
  }
  const Window w = beta_window(*scheme);
  ASSERT_TRUE(w.valid);
  const double beta = 1.01 + 0.25 * step;
  const SenseMargins m = scheme->margins(beta);
  const double tol = 1e-6;
  if (beta > w.lo + tol && beta < w.hi - tol) {
    EXPECT_GT(m.min().value(), 0.0) << "beta=" << beta;
  } else if (beta < w.lo - tol || beta > w.hi + tol) {
    EXPECT_LT(m.min().value(), 0.0) << "beta=" << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BetaGrid, BetaWindowProperty,
    ::testing::Combine(::testing::Bool(), ::testing::Range(0, 12)));

// Property sweep over mismatch: any (dR, d-alpha) inside both closed-form
// windows keeps margins positive.
class MismatchWindowProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MismatchWindowProperty, InsideWindowsMeansPositiveMargins) {
  const MtjParams mtj = MtjParams::paper_calibrated();
  const NondestructiveSelfReference scheme(mtj, Ohm(917.0), SelfRefConfig{});
  const double beta = scheme.paper_beta();
  const Window wr = delta_r_window(scheme, beta);
  const Window wa = scheme.alpha_deviation_window(beta);
  ASSERT_TRUE(wr.valid && wa.valid);
  // Sample a grid strictly inside the two windows; because margins are
  // affine in each deviation with opposing slopes per margin, interior
  // points of the per-axis windows shrunk to 45 % jointly stay positive.
  const double fr = -0.45 + 0.09 * std::get<0>(GetParam());
  const double fa = -0.45 + 0.09 * std::get<1>(GetParam());
  SchemeMismatch mm;
  mm.delta_r_t = Ohm(fr > 0 ? fr * wr.hi : -fr * wr.lo);
  mm.alpha_deviation = fa > 0 ? fa * wa.hi : -fa * wa.lo;
  const SenseMargins m = scheme.margins(beta, mm);
  EXPECT_GT(m.min().value(), 0.0)
      << "dr=" << mm.delta_r_t.value() << " da=" << mm.alpha_deviation;
}

INSTANTIATE_TEST_SUITE_P(MismatchGrid, MismatchWindowProperty,
                         ::testing::Combine(::testing::Range(0, 11),
                                            ::testing::Range(0, 11)));

// ------------------------------------------------------------ Robustness

TEST(Robustness, BetaDeviationWindowContainsZero) {
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  const Window w = beta_deviation_window(scheme, scheme.paper_beta());
  ASSERT_TRUE(w.valid);
  EXPECT_LT(w.lo, 0.0);
  EXPECT_GT(w.hi, 0.0);
  // Window edges map onto the absolute beta window.
  const Window wb = beta_window(scheme);
  EXPECT_NEAR(scheme.paper_beta() * (1.0 + w.hi), wb.hi, 1e-6);
  EXPECT_NEAR(scheme.paper_beta() * (1.0 + w.lo), wb.lo, 1e-6);
}

TEST(Robustness, AlphaWindowInvalidForDestructiveScheme) {
  const DestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                        Ohm(917.0), SelfRefConfig{});
  const Window w = alpha_window(scheme, 1.22);
  EXPECT_FALSE(w.valid);  // margins do not depend on alpha
}

TEST(Robustness, SummaryIsSelfConsistent) {
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{});
  const RobustnessSummary s = analyze_robustness(scheme, 2.13);
  EXPECT_TRUE(s.beta.contains(2.13));
  EXPECT_TRUE(s.delta_r.contains(0.0));
  EXPECT_TRUE(s.alpha_dev.contains(0.0));
  EXPECT_GT(s.margins_at_design.min().value(), 0.0);
}

TEST(Robustness, WindowsShrinkWithWeakerDevice) {
  // Halving the high-state roll-off (the scheme's signal) shrinks every
  // budget.
  MtjParams weak = MtjParams::paper_calibrated();
  weak.droop_high = Ohm(300.0);
  const SelfRefConfig config;
  const NondestructiveSelfReference strong(MtjParams::paper_calibrated(),
                                           Ohm(917.0), config);
  const NondestructiveSelfReference weaker(weak, Ohm(917.0), config);
  const Window wr_strong = delta_r_window(strong, strong.paper_beta());
  const Window wr_weak = delta_r_window(weaker, weaker.paper_beta());
  ASSERT_TRUE(wr_strong.valid && wr_weak.valid);
  EXPECT_LT(wr_weak.width(), wr_strong.width());
}

// ----------------------------------------------------------------- Noise

TEST(ReadNoise, KtcMatchesClosedForm) {
  // sqrt(kT/C) at 300 K for 250 fF is ~0.129 mV.
  EXPECT_NEAR(ktc_noise(Farad(250e-15)).value(), 128.7e-6, 1e-6);
  // Quadrupling C halves the noise.
  EXPECT_NEAR(ktc_noise(Farad(1e-12)).value(),
              0.5 * ktc_noise(Farad(250e-15)).value(), 1e-9);
  EXPECT_THROW(ktc_noise(Farad(0.0)), InvalidArgument);
}

TEST(ReadNoise, BudgetStaysFarBelowMargin) {
  // Paper-scale elements: C1 = 250 fF, C_BL = 192 fF, comparator input
  // ~10 fF.  The total read-path noise must sit far below the 12.6 mV
  // margin (SNR > 15), or the scheme could not work at all.
  const ReadNoiseBudget b = read_noise_budget(
      Farad(250e-15), Farad(192e-15), Farad(10e-15), 0.5);
  EXPECT_LT(b.total.value(), 1e-3);
  EXPECT_GT(12.6e-3 / b.total.value(), 15.0);
  // The tiny comparator input node dominates.
  EXPECT_GT(b.divider_output, b.ktc_c1);
  EXPECT_GT(b.divider_output, b.bitline);
  // Noise rises at temperature.
  const ReadNoiseBudget hot = read_noise_budget(
      Farad(250e-15), Farad(192e-15), Farad(10e-15), 0.5, 400.0);
  EXPECT_GT(hot.total, b.total);
}

// ---------------------------------------------------- ReferenceCellSensing

TEST_F(SchemeFixture, ReferenceCellTracksCommonMode) {
  // Data and reference devices shifted together by a common factor: the
  // margins stay centered (they scale, but never collapse).
  const Ampere i_read(200e-6);
  const MtjParams shifted = mtj.scaled(1.2, 1.0);
  const ReferenceCellSensing tracking(shifted, shifted, r_t, i_read);
  const SenseMargins m = tracking.margins();
  EXPECT_NEAR(m.sm0.value(), m.sm1.value(), 1e-12);
  EXPECT_GT(m.min().value(), 50e-3);
  // The fixed reference from the *unshifted* nominal collapses instead.
  const ConventionalSensing nominal_ref(mtj, r_t, i_read);
  const ConventionalSensing shifted_cell(shifted, r_t, i_read);
  const SenseMargins broken =
      shifted_cell.margins(nominal_ref.midpoint_reference());
  EXPECT_LT(broken.min().value(), m.min().value() * 0.5);
}

TEST_F(SchemeFixture, ReferenceCellSuffersLocalMismatch) {
  // A data cell 15 % above its column's reference pair loses margin the
  // same way the conventional scheme does.
  const Ampere i_read(200e-6);
  const MtjParams local_high = mtj.scaled(1.15, 1.0);
  const ReferenceCellSensing mismatched(local_high, mtj, r_t, i_read);
  const ReferenceCellSensing matched(mtj, mtj, r_t, i_read);
  EXPECT_LT(mismatched.margins().min().value(),
            matched.margins().min().value());
}

TEST_F(SchemeFixture, ReferenceCellMidpointMatchesConventionalOnNominal) {
  const Ampere i_read(200e-6);
  const ReferenceCellSensing ref(mtj, mtj, r_t, i_read);
  const ConventionalSensing conv(mtj, r_t, i_read);
  EXPECT_NEAR(ref.margins().sm0.value(),
              conv.margins(conv.midpoint_reference()).sm0.value(), 1e-12);
}

// ------------------------------------------------------------- Designer

TEST(SchemeDesigner, CalibratedDeviceIsFeasible) {
  const SchemeDesign d = design_nondestructive_read(
      MtjParams::paper_calibrated(), Ohm(917.0), DesignConstraints{});
  ASSERT_TRUE(d.feasible);
  // Disturb-limited current lands just below the paper's 200 uA (which
  // corresponds to a ~6e-9 budget).
  EXPECT_GT(d.i_max.value(), 150e-6);
  EXPECT_LT(d.i_max.value(), 200e-6);
  EXPECT_NEAR(d.beta, 2.13, 0.05);
  EXPECT_GT(d.margins.min().value(), 8e-3);
  EXPECT_LE(d.read_disturb, 1e-9 * 1.01);
  EXPECT_TRUE(d.beta_window.contains(d.beta));
  EXPECT_TRUE(d.delta_r_window.contains(0.0));
}

TEST(SchemeDesigner, DriverCapBindsWhenTight) {
  DesignConstraints c;
  c.i_max_cap = Ampere(100e-6);
  const SchemeDesign d = design_nondestructive_read(
      MtjParams::paper_calibrated(), Ohm(917.0), c);
  EXPECT_DOUBLE_EQ(d.i_max.value(), 100e-6);
  // Half the current halves the margins: no longer feasible at 8 mV.
  EXPECT_FALSE(d.feasible);
}

TEST(SchemeDesigner, LowTmrDeviceIsInfeasible) {
  // An AlO-like junction (TMR ~25 %, weak roll-off) cannot meet the
  // 8 mV requirement — the paper's case for MgO.
  MtjParams alo = MtjParams::paper_calibrated();
  alo.r_high0 = Ohm(1525.0);  // 25 % TMR
  alo.droop_high = Ohm(100.0);
  const SchemeDesign d =
      design_nondestructive_read(alo, Ohm(917.0), DesignConstraints{});
  EXPECT_FALSE(d.feasible);
  EXPECT_FALSE(d.notes.empty());
}

TEST(SchemeDesigner, RelaxedDisturbBudgetRaisesMargin) {
  DesignConstraints strict;
  strict.disturb_budget = 1e-12;
  DesignConstraints relaxed;
  relaxed.disturb_budget = 1e-6;
  const MtjParams dev = MtjParams::paper_calibrated();
  const SchemeDesign a = design_nondestructive_read(dev, Ohm(917.0), strict);
  const SchemeDesign b =
      design_nondestructive_read(dev, Ohm(917.0), relaxed);
  EXPECT_LT(a.i_max.value(), b.i_max.value());
  EXPECT_LT(a.margins.min().value(), b.margins.min().value());
  // The relaxed design is clipped by the R-I calibration validity, not
  // the disturb budget.
  EXPECT_LE(b.i_max.value(), dev.i_droop_ref.value() * 1.5 + 1e-12);
}

// -------------------------------------------------------- Read operations

class ReadOpFixture : public ::testing::Test {
 protected:
  SelfRefConfig config{};
  double beta_n = NondestructiveSelfReference(MtjParams::paper_calibrated(),
                                              Ohm(917.0), SelfRefConfig{})
                      .paper_beta();
  double beta_d = DestructiveSelfReference(MtjParams::paper_calibrated(),
                                           Ohm(917.0), SelfRefConfig{})
                      .paper_beta();
};

TEST_F(ReadOpFixture, NondestructiveNeverWrites) {
  const NondestructiveReadOperation op(config, beta_n);
  for (const bool bit : {false, true}) {
    OneT1JCell cell;
    cell.mtj().force_state(from_bit(bit));
    const ReadResult r = op.execute(cell);
    EXPECT_TRUE(r.correct);
    EXPECT_TRUE(r.reliable);
    EXPECT_FALSE(r.data_was_overwritten);
    EXPECT_FALSE(r.data_lost);
    EXPECT_EQ(cell.mtj().write_pulse_count(), 0u);
    EXPECT_EQ(cell.stored_bit(), bit);
    // Two reads, as the scheme specifies.
    EXPECT_EQ(cell.mtj().read_count(), 2u);
  }
}

TEST_F(ReadOpFixture, NondestructiveMarginMatchesAnalytic) {
  const NondestructiveReadOperation op(config, beta_n);
  OneT1JCell cell;
  cell.mtj().force_state(MtjState::kAntiParallel);
  const ReadResult r = op.execute(cell);
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), config);
  EXPECT_NEAR(r.margin.value(), scheme.margins(beta_n).sm1.value(), 1e-12);
}

TEST_F(ReadOpFixture, DestructiveRestoresAndReportsOverwrite) {
  const DestructiveReadOperation op(config, beta_d, Ampere(750e-6));
  for (const bool bit : {false, true}) {
    OneT1JCell cell;
    cell.mtj().force_state(from_bit(bit));
    const ReadResult r = op.execute(cell);
    EXPECT_TRUE(r.correct);
    EXPECT_FALSE(r.data_lost) << "write-back must restore the value";
    EXPECT_EQ(cell.stored_bit(), bit);
    EXPECT_EQ(r.data_was_overwritten, bit);  // a stored 1 was erased
    EXPECT_EQ(cell.mtj().write_pulse_count(), bit ? 2u : 1u);
  }
}

TEST_F(ReadOpFixture, DestructivePowerFailureMatrix) {
  const DestructiveReadOperation op(config, beta_d, Ampere(750e-6));
  // Failing right after the erase phase loses a stored 1 but not a 0.
  PowerFailure f;
  f.enabled = true;
  f.fail_after_phase = DestructiveReadOperation::erase_phase_index();
  OneT1JCell one;
  one.mtj().force_state(MtjState::kAntiParallel);
  const ReadResult r1 = op.execute(one, f);
  EXPECT_TRUE(r1.data_lost);
  EXPECT_FALSE(one.stored_bit());
  OneT1JCell zero;
  zero.mtj().force_state(MtjState::kParallel);
  const ReadResult r0 = op.execute(zero, f);
  EXPECT_FALSE(r0.data_lost);
  // Failing before the erase is always safe.
  f.fail_after_phase = 0;
  OneT1JCell early;
  early.mtj().force_state(MtjState::kAntiParallel);
  EXPECT_FALSE(op.execute(early, f).data_lost);
}

TEST_F(ReadOpFixture, ConventionalReadAgainstReference) {
  const ConventionalSensing nominal(MtjParams::paper_calibrated(),
                                    Ohm(917.0), config.i_max);
  const ConventionalReadOperation op(config.i_max,
                                     nominal.midpoint_reference());
  for (const bool bit : {false, true}) {
    OneT1JCell cell;
    cell.mtj().force_state(from_bit(bit));
    const ReadResult r = op.execute(cell);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(cell.mtj().write_pulse_count(), 0u);
  }
}

TEST_F(ReadOpFixture, LatencyDecomposesIntoPhases) {
  const NondestructiveReadOperation op(config, beta_n);
  OneT1JCell cell;
  const ReadResult r = op.execute(cell);
  Second sum{0.0};
  for (const auto& p : r.phases) {
    EXPECT_NEAR(p.start.value(), sum.value(), 1e-18);
    sum += p.duration;
  }
  EXPECT_NEAR(sum.value(), r.latency.value(), 1e-18);
}

TEST_F(ReadOpFixture, ReadCurrentsNeverExceedImax) {
  // The first read runs at I_max/beta < I_max; the second at exactly
  // I_max — the no-disturb budget is never exceeded.
  const NondestructiveReadOperation op(config, beta_n);
  EXPECT_GT(op.beta(), 1.0);
  EXPECT_LT((op.config().i_max / op.beta()).value(),
            op.config().i_max.value());
  EXPECT_THROW(NondestructiveReadOperation(config, 0.9), InvalidArgument);
}

TEST_F(ReadOpFixture, SenseAmpOffsetCanFlipMarginalRead) {
  // With an offset larger than the scheme margin the read fails — the
  // reason the paper uses an auto-zeroed amplifier.
  SenseAmpParams amp;
  amp.offset = Volt(20e-3);  // larger than the ~12.6 mV margin
  const NondestructiveReadOperation op(config, beta_n, ReadTimingParams{},
                                       amp);
  OneT1JCell cell;
  cell.mtj().force_state(MtjState::kAntiParallel);
  const ReadResult r = op.execute(cell);
  EXPECT_FALSE(r.correct);
}

// ---------------------------------------------------------- ClosedForms

void expect_bitwise(const SenseMargins& got, const SenseMargins& want,
                    const std::string& where) {
  EXPECT_EQ(got.sm0.value(), want.sm0.value()) << where << " SM0";
  EXPECT_EQ(got.sm1.value(), want.sm1.value()) << where << " SM1";
}

TEST(ClosedForms, ClassMarginsMatchTheWrittenOutForms) {
  // Devices: nominal, common-scaled, TMR-scaled and varied, on the
  // linear law plus one Simmons device; fixed and NMOS access devices.
  const MtjParams nominal = MtjParams::paper_calibrated();
  std::vector<MtjParams> devices = {nominal, nominal.scaled(0.9, 1.0),
                                    nominal.scaled(1.12, 1.0),
                                    nominal.scaled(1.0, 0.85),
                                    nominal.scaled(1.07, 1.1)};
  VariationParams vp;
  vp.sigma_common = 0.08;
  vp.sigma_tmr = 0.05;
  const MtjVariationModel variation(nominal, vp);
  Xoshiro256 stream(2010);
  for (int k = 0; k < 6; ++k) devices.push_back(variation.sample(stream));
  std::vector<std::unique_ptr<RiModel>> models;
  for (const MtjParams& d : devices) {
    models.push_back(std::make_unique<LinearRiModel>(d));
  }
  models.push_back(std::make_unique<SimmonsRiModel>(
      SimmonsRiModel::calibrated_to(nominal)));
  std::vector<std::unique_ptr<AccessDeviceModel>> accesses;
  for (const double r : {917.0, 861.5, 990.0}) {
    accesses.push_back(std::make_unique<FixedAccessResistor>(Ohm(r)));
  }
  accesses.push_back(std::make_unique<LinearRegionNmos>(
      LinearRegionNmos::with_on_resistance(Ohm(917.0))));

  std::vector<SchemeMismatch> mismatches(7);
  mismatches[1].delta_r_t = Ohm(40.0);
  mismatches[2].delta_r_t = Ohm(-130.0);
  mismatches[3].alpha_deviation = 0.03;
  mismatches[4].alpha_deviation = -0.057;
  mismatches[5].beta_deviation = 0.02;
  mismatches[6] = {Ohm(25.0), -0.02, -0.013};
  const LinearRiModel ref_p(devices[6]);
  const LinearRiModel ref_ap(devices[7]);

  std::size_t checked = 0;
  for (std::size_t m = 0; m < models.size(); ++m) {
    for (std::size_t a = 0; a < accesses.size(); ++a) {
      const RiModel& model = *models[m];
      const AccessDeviceModel& access = *accesses[a];
      const std::string where =
          "device " + std::to_string(m) + ", access " + std::to_string(a);
      for (const double i_ua : {150.0, 200.0}) {
        const Ampere i_read(i_ua * 1e-6);
        const ConventionalSensing conv(model, access, i_read);
        for (const double dv : {0.0, 4e-3, -13.5e-3}) {
          const Volt v_ref = conv.midpoint_reference() + Volt(dv);
          expect_bitwise(conv.margins(v_ref),
                         oracle::conventional(model, access, i_read, v_ref),
                         where + ", conventional");
        }
        expect_bitwise(
            ReferenceCellSensing(model, access, ref_p, ref_ap, i_read)
                .margins(),
            oracle::reference_cell(model, access, ref_p, ref_ap, i_read),
            where + ", reference cell");
      }
      for (const double alpha : {0.5, 0.45}) {
        SelfRefConfig config;
        config.alpha = alpha;
        const DestructiveSelfReference d(model, access, config);
        const NondestructiveSelfReference n(model, access, config);
        for (const double beta : {1.22, 1.6, 2.131, 3.0}) {
          for (const SchemeMismatch& mm : mismatches) {
            expect_bitwise(d.margins(beta, mm),
                           oracle::destructive(model, access, config, beta,
                                               mm),
                           where + ", destructive");
            expect_bitwise(n.margins(beta, mm),
                           oracle::nondestructive(model, access, config,
                                                  beta, mm),
                           where + ", nondestructive");
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 12u * 4u * 2u * 4u * 7u);
}

// -------------------------------------------------------------- Schemes

TEST(Schemes, TableFollowsSchemeIdOrder) {
  for (std::size_t i = 0; i < kSchemeCount; ++i) {
    const SchemeRow& row = kSchemeTable[i];
    EXPECT_EQ(scheme_index(row.id), i);
    EXPECT_EQ(&scheme_row(row.id), &row);
    EXPECT_EQ(scheme_from_key(row.key), row.id);
  }
  // A label is not a key.
  EXPECT_THROW((void)scheme_from_key("reference-cell"), InvalidArgument);
}

TEST(Schemes, KeysAndLabelsAreTheSpellingsReportsUse) {
  scenario::register_builtin_kinds();
  const auto choices = [](const char* kind) {
    return scenario::Registry::instance()
        .find(kind)
        ->schema.find("scheme")
        ->choices;
  };
  const auto run_kind = [](const char* kind, const char* params) {
    scenario::ScenarioInstance inst;
    inst.kind = kind;
    inst.params = Json::parse(params);
    return scenario::Registry::instance().find(kind)->run(inst, nullptr);
  };
  // `campaign list` and `--scheme` offer the keys: every scheme with a
  // read flow to the read-flow kinds, the self-reference schemes to
  // margin_sweep.
  std::vector<std::string> read_flow;
  std::vector<std::string> self_reference;
  for (const SchemeRow& row : kSchemeTable) {
    if (row.has_read_flow) read_flow.emplace_back(row.key);
    if (!row.externally_referenced) self_reference.emplace_back(row.key);
  }
  EXPECT_EQ(choices("traffic"), read_flow);
  EXPECT_EQ(choices("controller"), read_flow);
  EXPECT_EQ(choices("march"), read_flow);
  EXPECT_EQ(choices("margin_sweep"), self_reference);

  // Yield and fault-overlay reports: labels in the records, keys as the
  // metric prefixes.
  YieldConfig yc;
  yc.geometry = {8, 8};
  const YieldResult y = run_yield_experiment(yc);
  const fault::FaultYieldResult f = fault::run_yield_with_faults(
      yc, fault::FaultConfig::with_total_density(0.05), fault::BerConfig{});
  const Json yield_metrics = run_kind("yield", R"({"rows": 8, "cols": 8})");
  const Json overlay_metrics =
      run_kind("fault_overlay", R"({"rows": 8, "cols": 8})");
  for (const SchemeRow& row : kSchemeTable) {
    EXPECT_EQ(y.scheme(row.id).scheme, row.label);
    EXPECT_EQ(f.scheme(row.id).scheme, row.label);
    EXPECT_TRUE(yield_metrics.contains(std::string(row.key) + ".failures"))
        << row.key;
    EXPECT_TRUE(overlay_metrics.contains(std::string(row.key) + ".raw_ber"))
        << row.key;
  }

  // Read-flow reports: the cost table (one row per scheme with a read
  // flow, in table order), traffic, the controller and march coverage.
  const CostComparisonConfig cost;
  const std::vector<SchemeCost> costs = compare_scheme_costs(cost);
  ASSERT_EQ(costs.size(), read_flow.size());
  std::size_t k = 0;
  for (const SchemeRow& row : kSchemeTable) {
    if (!row.has_read_flow) continue;
    EXPECT_EQ(costs[k].scheme, row.label);
    EXPECT_EQ(costs[k].write_pulses_read1 > 0, row.writes_cell);
    ++k;
    engine::TrafficConfig traffic;
    traffic.scheme = row.id;
    traffic.requests = 64;
    EXPECT_EQ(engine::run_traffic(traffic).scheme, row.label);
    engine::controller::ControllerConfig controller;
    controller.scheme = row.id;
    controller.requests = 64;
    EXPECT_EQ(engine::controller::run_controller_traffic(controller).scheme,
              row.label);
  }
}

TEST(Schemes, ReadFlowEntryPointsRefuseASchemeWithoutOne) {
  const CostComparisonConfig cost;
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());
  std::size_t refused = 0;
  for (const SchemeRow& row : kSchemeTable) {
    if (row.has_read_flow) continue;
    ++refused;
    OneT1JCell cell;
    EXPECT_THROW((void)execute_scheme_read(row.id, cost, cell),
                 InvalidArgument);
    EXPECT_THROW((void)scheme_cost(row.id, cost), InvalidArgument);
    EXPECT_THROW((void)engine::scheme_bank_timing(row.id, cost),
                 InvalidArgument);
    engine::TrafficConfig traffic;
    traffic.scheme = row.id;
    traffic.requests = 64;
    EXPECT_THROW((void)engine::run_traffic(traffic), InvalidArgument);
    engine::controller::ControllerConfig controller;
    controller.scheme = row.id;
    controller.requests = 64;
    EXPECT_THROW(
        (void)engine::controller::run_controller_traffic(controller),
        InvalidArgument);
    EXPECT_THROW(
        (void)engine::controller::read_command_sequence(row.id, cost),
        InvalidArgument);
    TestableArray array({4, 4}, variation, 1);
    EXPECT_THROW((void)array.read(0, 0, row.id), InvalidArgument);
    EXPECT_THROW((void)run_march_c_minus(array, row.id), InvalidArgument);
  }
  EXPECT_EQ(refused, 1u);  // reference-cell sensing
}

}  // namespace
}  // namespace sttram
