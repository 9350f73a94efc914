// Randomized property tests: the paper's structural invariants must
// hold not just on the calibrated device but across the whole process
// distribution.  Each test case is parameterized by an RNG seed that
// samples a different device instance.
#include <gtest/gtest.h>

#include <cmath>

#include "sttram/device/reliability.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/sense/design.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

class RandomDeviceProperty : public ::testing::TestWithParam<int> {
 protected:
  /// A device sampled with generous variation (wider than the calibrated
  /// defaults, to stress the invariants).
  MtjParams sample() const {
    const MtjVariationModel model(MtjParams::paper_calibrated(),
                                  VariationParams{0.12, 0.05, 0.05});
    Xoshiro256 rng(0xfeed0000ULL + static_cast<std::uint64_t>(GetParam()));
    return model.sample(rng);
  }
  Ohm r_t{917.0};
  SelfRefConfig config{};
};

TEST_P(RandomDeviceProperty, EqualMarginOptimumExistsAndIsPositive) {
  const MtjParams dev = sample();
  const NondestructiveSelfReference scheme(dev, r_t, config);
  const double beta = scheme.optimal_beta();
  const SenseMargins m = scheme.margins(beta);
  EXPECT_NEAR(m.sm0.value(), m.sm1.value(),
              1e-9 + 1e-6 * std::fabs(m.sm0.value()));
  EXPECT_GT(m.min().value(), 0.0);
  // The paper's Eq. (10) closed form is the exact optimum for the
  // linear law on ANY device instance, not just the nominal one.
  EXPECT_NEAR(scheme.paper_beta(), beta, 1e-6);
}

TEST_P(RandomDeviceProperty, DesignedPointSitsInsideEveryWindow) {
  const MtjParams dev = sample();
  const NondestructiveSelfReference scheme(dev, r_t, config);
  const double beta = scheme.paper_beta();
  EXPECT_TRUE(beta_window(scheme).contains(beta));
  EXPECT_TRUE(delta_r_window(scheme, beta).contains(0.0));
  EXPECT_TRUE(scheme.alpha_deviation_window(beta).contains(0.0));
}

TEST_P(RandomDeviceProperty, WindowEdgesAreExactMarginZeros) {
  const MtjParams dev = sample();
  const NondestructiveSelfReference scheme(dev, r_t, config);
  const double beta = scheme.paper_beta();
  const Window w = delta_r_window(scheme, beta);
  ASSERT_TRUE(w.valid);
  SchemeMismatch mm;
  mm.delta_r_t = Ohm(w.hi);
  EXPECT_NEAR(scheme.margins(beta, mm).min().value(), 0.0, 1e-9);
  mm.delta_r_t = Ohm(w.lo);
  EXPECT_NEAR(scheme.margins(beta, mm).min().value(), 0.0, 1e-9);
}

TEST_P(RandomDeviceProperty, DestructiveAlwaysOutMarginsNondestructive) {
  // The destructive scheme compares against an erased cell, so its
  // signal is the full R_H - R_L separation; the nondestructive signal
  // is only the roll-off difference.  On every device the destructive
  // margin is larger.
  const MtjParams dev = sample();
  const DestructiveSelfReference destr(dev, r_t, config);
  const NondestructiveSelfReference nondes(dev, r_t, config);
  const double md = destr.margins(destr.optimal_beta()).min().value();
  const double mn = nondes.margins(nondes.optimal_beta()).min().value();
  EXPECT_GT(md, mn);
}

TEST_P(RandomDeviceProperty, MarginsScaleWithCommonFactor) {
  const MtjParams dev = sample();
  const double f = 1.17;
  const NondestructiveSelfReference base(dev, r_t, config);
  const NondestructiveSelfReference scaled(dev.scaled(f, 1.0),
                                           Ohm(r_t.value() * f), config);
  const double beta = base.paper_beta();
  // The optimum is scale-invariant...
  EXPECT_NEAR(scaled.paper_beta(), beta, 1e-9);
  // ...and the margins scale exactly by f.
  EXPECT_NEAR(scaled.margins(beta).min().value(),
              f * base.margins(beta).min().value(), 1e-12);
}

TEST_P(RandomDeviceProperty, SelfReferenceNeedsNoSharedReference) {
  // Two arbitrary devices: their conventional bit-line voltage ranges
  // may overlap (reference collision), but each reads correctly against
  // itself.
  const MtjParams dev = sample();
  const NondestructiveSelfReference scheme(dev, r_t, config);
  EXPECT_GT(scheme.margins(scheme.paper_beta()).min().value(), 0.0);
}

TEST_P(RandomDeviceProperty, SwitchingModelInvariants) {
  const MtjParams dev = sample();
  const SwitchingModel sw(dev);
  EXPECT_NEAR(sw.critical_current(dev.t_write_ref).value(),
              dev.i_critical.value(), 1e-12);
  // Read-level currents never come close to switching.
  EXPECT_LT(sw.read_disturb_probability(config.i_max, Second(10e-9)),
            1e-3);
  // Disturb accumulation inverts cleanly.
  const DisturbAccumulator acc(sw, config.i_max, Second(5e-9));
  if (acc.per_pulse() > 0.0) {
    const double n = acc.pulses_to_budget(0.01);
    EXPECT_NEAR(-std::expm1(n * std::log1p(-acc.per_pulse())), 0.01, 1e-9);
  }
}

TEST_P(RandomDeviceProperty, DesignerOutputIsSelfConsistent) {
  const MtjParams dev = sample();
  const SchemeDesign d =
      design_nondestructive_read(dev, r_t, DesignConstraints{});
  if (!d.feasible) return;  // weak instances may fail; that is valid
  EXPECT_GT(d.margins.min(), Volt(8e-3));
  EXPECT_LE(d.read_disturb, 1e-9 * 1.01);
  EXPECT_TRUE(d.beta_window.contains(d.beta));
  // The designed current respects the model validity clamp.
  EXPECT_LE(d.i_max.value(), dev.i_droop_ref.value() * 1.5 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDeviceProperty,
                         ::testing::Range(0, 16));

}  // namespace
}  // namespace sttram
