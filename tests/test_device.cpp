// Tests for sttram/device: R-I models, switching dynamics, the stateful
// MTJ device, and the process-variation model.  Includes parameterized
// property sweeps over read currents and states.
#include <gtest/gtest.h>

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/device/mtj.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {
namespace {

using namespace sttram::literals;

// ------------------------------------------------------------ R-I models

TEST(LinearRiModel, EvenInCurrent) {
  const LinearRiModel m(MtjParams::paper_calibrated());
  for (const MtjState s : {MtjState::kParallel, MtjState::kAntiParallel}) {
    EXPECT_EQ(m.resistance(s, Ampere(50e-6)), m.resistance(s, Ampere(-50e-6)));
  }
}

TEST(LinearRiModel, RejectsBadParams) {
  MtjParams p;
  p.r_low0 = Ohm(0.0);
  EXPECT_THROW(LinearRiModel{p}, InvalidArgument);
  p = MtjParams::paper_calibrated();
  p.r_high0 = p.r_low0;  // must exceed
  EXPECT_THROW(LinearRiModel{p}, InvalidArgument);
  p = MtjParams::paper_calibrated();
  p.droop_low = Ohm(-1.0);
  EXPECT_THROW(LinearRiModel{p}, InvalidArgument);
}

TEST(LinearRiModel, CloneIsDeep) {
  const LinearRiModel m(MtjParams::paper_calibrated());
  const auto c = m.clone();
  EXPECT_EQ(c->resistance(MtjState::kParallel, Ampere(1e-4)),
            m.resistance(MtjState::kParallel, Ampere(1e-4)));
}

TEST(SimmonsRiModel, ZeroBiasMatchesNominal) {
  const SimmonsRiModel m =
      SimmonsRiModel::calibrated_to(MtjParams::paper_calibrated());
  EXPECT_NEAR(m.resistance(MtjState::kParallel, Ampere(0)).value(), 1220.0,
              1e-9);
  EXPECT_NEAR(m.resistance(MtjState::kAntiParallel, Ampere(0)).value(),
              2500.0, 1e-9);
}

TEST(SimmonsRiModel, CalibrationMatchesDroopAtImax) {
  const MtjParams params = MtjParams::paper_calibrated();
  const SimmonsRiModel m = SimmonsRiModel::calibrated_to(params);
  EXPECT_NEAR(
      m.droop(MtjState::kAntiParallel, Ampere(0), params.i_droop_ref).value(),
      600.0, 0.5);
  EXPECT_NEAR(
      m.droop(MtjState::kParallel, Ampere(0), params.i_droop_ref).value(),
      10.0, 0.1);
}

TEST(SimmonsRiModel, BiasVoltageSolvesConductanceEquation) {
  const SimmonsRiModel m =
      SimmonsRiModel::calibrated_to(MtjParams::paper_calibrated());
  const Ampere i(150e-6);
  const Volt v = m.bias_voltage(MtjState::kAntiParallel, i);
  const auto& p = m.params();
  const double g0 = 1.0 / p.r_high0.value();
  const double u = v.value() / p.v_half_high.value();
  EXPECT_NEAR(g0 * v.value() * (1.0 + u * u), i.value(), 1e-12);
}

TEST(TableRiModel, RoundTripsSampledModel) {
  const LinearRiModel src(MtjParams::paper_calibrated());
  const TableRiModel table =
      TableRiModel::sampled_from(src, Ampere(200e-6), 64);
  for (const double i : {0.0, 37e-6, 100e-6, 199e-6}) {
    EXPECT_NEAR(table.resistance(MtjState::kParallel, Ampere(i)).value(),
                src.resistance(MtjState::kParallel, Ampere(i)).value(), 0.05);
    EXPECT_NEAR(table.resistance(MtjState::kAntiParallel, Ampere(i)).value(),
                src.resistance(MtjState::kAntiParallel, Ampere(i)).value(),
                0.5);
  }
  // Clamped beyond the sampled range (the paper's DC extrapolation).
  EXPECT_EQ(table.resistance(MtjState::kParallel, Ampere(300e-6)),
            table.resistance(MtjState::kParallel, Ampere(200e-6)));
}

// Property sweep: every model is non-increasing in |I| and keeps
// R_AP > R_P over the full read range.
class RiModelProperty : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<RiModel> make() const {
    const MtjParams p = MtjParams::paper_calibrated();
    switch (GetParam()) {
      case 0:
        return std::make_unique<LinearRiModel>(p);
      case 1:
        return std::make_unique<SimmonsRiModel>(
            SimmonsRiModel::calibrated_to(p));
      default:
        return std::make_unique<TableRiModel>(
            TableRiModel::sampled_from(LinearRiModel(p), Ampere(200e-6),
                                       32));
    }
  }
};

TEST_P(RiModelProperty, MonotoneNonIncreasingAndOrdered) {
  const auto m = make();
  double prev_h = 1e18, prev_l = 1e18;
  for (int k = 0; k <= 50; ++k) {
    const Ampere i(200e-6 * k / 50.0);
    const double rh = m->resistance(MtjState::kAntiParallel, i).value();
    const double rl = m->resistance(MtjState::kParallel, i).value();
    EXPECT_LE(rh, prev_h + 1e-9);
    EXPECT_LE(rl, prev_l + 1e-9);
    EXPECT_GT(rh, rl);
    EXPECT_GT(m->tmr(i), 0.0);
    prev_h = rh;
    prev_l = rl;
  }
}

TEST_P(RiModelProperty, HighStateRollsOffSteeper) {
  const auto m = make();
  const Ohm dh = m->droop(MtjState::kAntiParallel, Ampere(0), Ampere(200e-6));
  const Ohm dl = m->droop(MtjState::kParallel, Ampere(0), Ampere(200e-6));
  EXPECT_GT(dh.value(), 5.0 * dl.value());
}

INSTANTIATE_TEST_SUITE_P(AllModels, RiModelProperty,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0: return "Linear";
                             case 1: return "Simmons";
                             default: return "Table";
                           }
                         });

// ------------------------------------------------------------- Switching

TEST(Switching, CalibratedAtReferencePulse) {
  const MtjParams p = MtjParams::paper_calibrated();
  const SwitchingModel m(p);
  EXPECT_NEAR(m.critical_current(p.t_write_ref).value(),
              p.i_critical.value(), 1e-9);
}

TEST(Switching, CriticalCurrentDecreasesWithPulseWidth) {
  const SwitchingModel m(MtjParams::paper_calibrated());
  const Ampere short_pulse = m.critical_current(Second(1e-9));
  const Ampere ref = m.critical_current(Second(4e-9));
  const Ampere long_pulse = m.critical_current(Second(100e-9));
  EXPECT_GT(short_pulse, ref);
  EXPECT_GT(ref, long_pulse);
}

TEST(Switching, ProbabilityMonotoneInCurrentAndTime) {
  const SwitchingModel m(MtjParams::paper_calibrated());
  double prev = -1.0;
  for (const double i : {50e-6, 200e-6, 400e-6, 500e-6, 700e-6}) {
    const double p = m.switching_probability(Ampere(i), Second(4e-9));
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_LE(m.switching_probability(Ampere(450e-6), Second(1e-9)),
            m.switching_probability(Ampere(450e-6), Second(10e-9)));
  EXPECT_DOUBLE_EQ(m.switching_probability(Ampere(0), Second(4e-9)), 0.0);
  EXPECT_DOUBLE_EQ(m.switching_probability(Ampere(1e-3), Second(0)), 0.0);
}

TEST(Switching, ReadCurrentsDoNotDisturb) {
  // The design rule behind I_max: reads at 200 uA (40 % of I_c) are
  // essentially disturb-free, while write-level currents switch reliably.
  const SwitchingModel m(MtjParams::paper_calibrated());
  EXPECT_LT(m.read_disturb_probability(Ampere(200e-6), Second(10e-9)),
            1e-6);
  EXPECT_GT(m.switching_probability(Ampere(750e-6), Second(4e-9)), 0.99);
}

TEST(Switching, MaxNondisturbingCurrentIsConsistent) {
  const SwitchingModel m(MtjParams::paper_calibrated());
  const Second dwell(5e-9);
  const Ampere i = m.max_nondisturbing_current(dwell, 1e-9);
  EXPECT_GT(i.value(), 100e-6);  // comfortably above the paper's read level
  EXPECT_NEAR(m.read_disturb_probability(i, dwell), 1e-9, 1e-10);
}

TEST(Switching, AttemptSwitchStatistics) {
  const SwitchingModel m(MtjParams::paper_calibrated());
  // Pick a bias point with mid-range probability and verify the Bernoulli
  // sampler tracks it.
  Ampere i(400e-6);
  const Second tp(4e-9);
  const double p = m.switching_probability(i, tp);
  ASSERT_GT(p, 0.05);
  ASSERT_LT(p, 0.95);
  Xoshiro256 rng(3);
  int hits = 0;
  const int trials = 20000;
  for (int k = 0; k < trials; ++k) {
    if (m.attempt_switch(rng, i, tp)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, p, 0.02);
}

// ------------------------------------------------------------- MtjDevice

TEST(MtjDevice, ReadCountsAndResistance) {
  MtjDevice d;
  EXPECT_EQ(d.state(), MtjState::kParallel);
  const Ohm r = d.read_resistance(Ampere(200e-6));
  EXPECT_NEAR(r.value(), 1210.0, 1e-9);
  EXPECT_EQ(d.read_count(), 1u);
}

TEST(MtjDevice, DeterministicWriteAtCriticalCurrent) {
  MtjDevice d(MtjParams::paper_calibrated(), MtjState::kParallel);
  const Ampere i_w(750e-6);
  const Second tp(4e-9);
  EXPECT_TRUE(d.apply_write_pulse(WritePolarity::kToAntiParallel, i_w, tp));
  EXPECT_EQ(d.state(), MtjState::kAntiParallel);
  EXPECT_EQ(d.switch_count(), 1u);
  // Writing the same value again is a no-op but counts a pulse.
  EXPECT_TRUE(d.apply_write_pulse(WritePolarity::kToAntiParallel, i_w, tp));
  EXPECT_EQ(d.switch_count(), 1u);
  EXPECT_EQ(d.write_pulse_count(), 2u);
}

TEST(MtjDevice, SubcriticalWriteWithoutRngDoesNotSwitch) {
  MtjDevice d(MtjParams::paper_calibrated(), MtjState::kParallel);
  EXPECT_FALSE(d.apply_write_pulse(WritePolarity::kToAntiParallel,
                                   Ampere(100e-6), Second(4e-9)));
  EXPECT_EQ(d.state(), MtjState::kParallel);
}

TEST(MtjDevice, RejectsNegativeAmplitude) {
  MtjDevice d;
  EXPECT_THROW(d.apply_write_pulse(WritePolarity::kToParallel,
                                   Ampere(-1e-6), Second(4e-9)),
               InvalidArgument);
}

TEST(MtjState, BitMapping) {
  EXPECT_EQ(from_bit(true), MtjState::kAntiParallel);
  EXPECT_EQ(from_bit(false), MtjState::kParallel);
  EXPECT_TRUE(to_bit(MtjState::kAntiParallel));
  EXPECT_EQ(flipped(MtjState::kParallel), MtjState::kAntiParallel);
  EXPECT_EQ(to_string(MtjState::kParallel), "P");
}

// ------------------------------------------------------------- Variation

TEST(Variation, ScaledPreservesStructure) {
  const MtjParams p = MtjParams::paper_calibrated();
  const MtjParams q = p.scaled(1.1, 1.0);
  // Pure common-mode: both states and droops scale together, TMR fixed.
  EXPECT_NEAR(q.r_low0.value(), 1220.0 * 1.1, 1e-9);
  EXPECT_NEAR(q.r_high0.value(), 2500.0 * 1.1, 1e-9);
  EXPECT_NEAR(q.tmr0(), p.tmr0(), 1e-12);
  const MtjParams r = p.scaled(1.0, 0.5);
  // TMR-only: low state untouched, high-state excess halves.
  EXPECT_NEAR(r.r_low0.value(), 1220.0, 1e-9);
  EXPECT_NEAR(r.r_high0.value(), 1220.0 + 0.5 * 1280.0, 1e-9);
}

TEST(Variation, SampleMomentsMatchSigmas) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams{0.10, 0.05, 0.03});
  Xoshiro256 rng(17);
  RunningStats low;
  for (int i = 0; i < 20000; ++i) {
    low.add(std::log(model.sample(rng).r_low0.value() / 1220.0));
  }
  EXPECT_NEAR(low.mean(), 0.0, 0.01);
  EXPECT_NEAR(low.stddev(), 0.10, 0.01);
}

TEST(Variation, NoneIsIdentity) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams::none());
  Xoshiro256 rng(1);
  const MtjParams s = model.sample(rng);
  EXPECT_DOUBLE_EQ(s.r_low0.value(), 1220.0);
  EXPECT_DOUBLE_EQ(s.r_high0.value(), 2500.0);
  EXPECT_DOUBLE_EQ(s.i_critical.value(), 500e-6);
}

TEST(Variation, CornersAreDirectional) {
  const MtjVariationModel model(MtjParams::paper_calibrated(),
                                VariationParams{0.08, 0.04, 0.0});
  const MtjParams hi = model.corner(3.0, +1, 0);
  const MtjParams lo = model.corner(3.0, -1, 0);
  EXPECT_GT(hi.r_low0.value(), 1220.0);
  EXPECT_LT(lo.r_low0.value(), 1220.0);
  EXPECT_NEAR(hi.r_low0.value() * lo.r_low0.value(), 1220.0 * 1220.0,
              1.0);  // symmetric in log space
  EXPECT_THROW((void)model.corner(3.0, 2, 0), InvalidArgument);
}

TEST(Variation, ThicknessConversionMatchesPaperQuote) {
  // "+8 % per 0.1 A": a 0.1 A sigma gives sigma_common = ln(1.08).
  EXPECT_NEAR(sigma_common_from_thickness(0.1), std::log(1.08), 1e-12);
  EXPECT_DOUBLE_EQ(sigma_common_from_thickness(0.0), 0.0);
}

}  // namespace
}  // namespace sttram
