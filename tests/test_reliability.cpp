// Tests for sttram/device reliability: retention, disturb accumulation,
// temperature scaling, write error rate, and the scheme-level disturb
// trade-off the paper implies (two reads per access, zero writes).
#include <gtest/gtest.h>

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/device/reliability.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/scheme.hpp"

namespace sttram {
namespace {

TEST(Retention, MeanTimeIsExponentialInDelta) {
  MtjParams p = MtjParams::paper_calibrated();
  p.thermal_stability = 40.0;
  const RetentionModel m40(p);
  p.thermal_stability = 41.0;
  const RetentionModel m41(p);
  EXPECT_NEAR(m41.mean_retention_time() / m40.mean_retention_time(),
              std::exp(1.0), 1e-9);
  // Delta = 40 with tau0 = 1 ns gives ~ 7.5 years of mean retention.
  EXPECT_GT(m40.mean_retention_time().value(), 1e8);
}

TEST(Retention, FlipProbabilitySaturates) {
  const RetentionModel m(MtjParams::paper_calibrated());
  EXPECT_DOUBLE_EQ(m.flip_probability(Second(0.0)), 0.0);
  EXPECT_LT(m.flip_probability(Second(1.0)), 1e-6);  // one second: safe
  const Second forever(1e30);
  EXPECT_NEAR(m.flip_probability(forever), 1.0, 1e-12);
}

TEST(Retention, RequiredStabilityRoundTrips) {
  const Second ten_years(10.0 * 365.25 * 86400.0);
  const double budget = 1e-9;
  const double delta = RetentionModel::required_stability(ten_years, budget);
  MtjParams p = MtjParams::paper_calibrated();
  p.thermal_stability = delta;
  const RetentionModel m(p);
  EXPECT_NEAR(m.flip_probability(ten_years), budget, budget * 1e-6);
  EXPECT_GT(delta, 40.0);  // the usual "Delta > 40" industry rule
  EXPECT_THROW((void)RetentionModel::required_stability(ten_years, 0.0),
               InvalidArgument);
}

TEST(Disturb, AccumulationIsStableForTinyP) {
  const SwitchingModel sw(MtjParams::paper_calibrated());
  const DisturbAccumulator acc(sw, Ampere(200e-6), Second(5e-9));
  const double p = acc.per_pulse();
  ASSERT_GT(p, 0.0);
  ASSERT_LT(p, 1e-6);
  // 1 - (1 - p)^N, evaluated stably for tiny p.
  const auto after_pulses = [p](double n) {
    return -std::expm1(n * std::log1p(-p));
  };
  // Single pulse matches; N pulses ~= N*p for tiny p.
  EXPECT_NEAR(after_pulses(1.0), p, p * 1e-9);
  EXPECT_NEAR(after_pulses(1000.0), 1000.0 * p, 1000.0 * p * 1e-3);
  // Round trip through the budget inversion.
  const double n = acc.pulses_to_budget(1e-3);
  EXPECT_NEAR(after_pulses(n), 1e-3, 1e-9);
}

TEST(Disturb, MonotoneInReadCurrent) {
  const SwitchingModel sw(MtjParams::paper_calibrated());
  const DisturbAccumulator low(sw, Ampere(100e-6), Second(5e-9));
  const DisturbAccumulator high(sw, Ampere(300e-6), Second(5e-9));
  EXPECT_LT(low.per_pulse(), high.per_pulse());
  EXPECT_GT(low.pulses_to_budget(1e-3), high.pulses_to_budget(1e-3));
}

TEST(Disturb, SelfReferenceHalvesTheAccessBudget) {
  // Two read pulses per access means half as many accesses before the
  // same disturb budget — the cost side of the paper's scheme.
  const SwitchingModel sw(MtjParams::paper_calibrated());
  const DisturbAccumulator acc(sw, Ampere(200e-6), Second(5e-9));
  const auto budget = [&](SchemeId id) {
    const double reads = static_cast<double>(
        scheme_read_currents(id, MtjParams::paper_calibrated(), Ohm(917.0),
                             SelfRefConfig{})
            .size());
    return accesses_to_disturb_budget(acc, reads, 1e-3);
  };
  const double conv = budget(SchemeId::kConventional);
  const double nondes = budget(SchemeId::kNondestructive);
  EXPECT_NEAR(nondes, conv / 2.0, conv * 1e-9);
  // Even halved, tens of thousands of back-to-back reads of the same
  // cell fit the budget (the paper's aggressive 40 %-of-I_c read level).
  EXPECT_GT(nondes, 1e4);
}

TEST(WriteError, DropsWithOverdrive) {
  const SwitchingModel sw(MtjParams::paper_calibrated());
  const double wer_marginal =
      write_error_rate(sw, Ampere(500e-6), Second(4e-9));
  const double wer_strong =
      write_error_rate(sw, Ampere(800e-6), Second(4e-9));
  EXPECT_GT(wer_marginal, wer_strong);
  EXPECT_LT(wer_strong, 5e-3);
}

TEST(Temperature, TmrAndStabilityShrink) {
  const MtjParams base = MtjParams::paper_calibrated();
  const MtjParams hot = mtj_at_temperature(base, 400.0);
  EXPECT_LT(hot.tmr0(), base.tmr0());
  EXPECT_LT(hot.thermal_stability, base.thermal_stability);
  EXPECT_NEAR(hot.thermal_stability, 40.0 * 300.0 / 400.0, 1e-9);
  const MtjParams cold = mtj_at_temperature(base, 250.0);
  EXPECT_GT(cold.tmr0(), base.tmr0());
  EXPECT_THROW(mtj_at_temperature(base, -1.0), InvalidArgument);
  // Reference temperature is the identity.
  const MtjParams same = mtj_at_temperature(base, 300.0);
  EXPECT_DOUBLE_EQ(same.r_high0.value(), base.r_high0.value());
}

TEST(Temperature, SenseMarginDegradesWhenHot) {
  // The nondestructive margin rides on the high-state roll-off, which
  // shrinks with TMR: margins fall at high temperature.
  const SelfRefConfig config;
  const MtjParams base = MtjParams::paper_calibrated();
  const NondestructiveSelfReference cool(base, Ohm(917.0), config);
  const NondestructiveSelfReference hot(mtj_at_temperature(base, 400.0),
                                        Ohm(917.0), config);
  const double beta_cool = cool.paper_beta();
  const double beta_hot = hot.paper_beta();
  EXPECT_LT(hot.margins(beta_hot).min().value(),
            cool.margins(beta_cool).min().value());
  // But the scheme still works at 125 C (398 K) with a re-tuned beta.
  EXPECT_GT(hot.margins(beta_hot).min().value(), 0.0);
}

}  // namespace
}  // namespace sttram
