// Tests for importance sampling and the yield-tail estimator.
#include <gtest/gtest.h>

#include <cmath>

#include "mc_oracle.hpp"
#include "sttram/common/error.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/importance.hpp"

namespace sttram {
namespace {

using oracle::importance_sample;

TEST(ImportanceSampling, RecoversKnownGaussianTail) {
  // P(z > 4) in 1-D is Phi(-4) = 3.167e-5; estimate it with a shift to
  // the design point z = 4.
  const auto fails = [](const std::vector<double>& z) { return z[0] > 4.0; };
  const ImportanceEstimate e = importance_sample(7, 20000, {4.0}, fails);
  const double exact = normal_cdf(-4.0);
  EXPECT_NEAR(e.probability, exact, 4.0 * e.std_error);
  EXPECT_LT(e.relative_error, 0.05);
  EXPECT_GT(e.hits, 5000u);  // the shift centers the failure region
}

TEST(ImportanceSampling, DeepTail) {
  // P(z > 6) = 9.87e-10 — hopeless for naive MC, easy with a shift.
  const auto fails = [](const std::vector<double>& z) { return z[0] > 6.0; };
  const ImportanceEstimate e = importance_sample(7, 40000, {6.0}, fails);
  EXPECT_NEAR(e.probability / normal_cdf(-6.0), 1.0, 0.15);
}

TEST(ImportanceSampling, MultidimensionalHalfSpace) {
  // Failure region z0 + z1 > 4: P = Phi(-4/sqrt(2)); design point at
  // (2, 2).
  const auto fails = [](const std::vector<double>& z) {
    return z[0] + z[1] > 4.0;
  };
  const ImportanceEstimate e =
      importance_sample(9, 30000, {2.0, 2.0}, fails);
  EXPECT_NEAR(e.probability / normal_cdf(-4.0 / std::sqrt(2.0)), 1.0, 0.1);
}

TEST(ImportanceSampling, ZeroWhenNothingFails) {
  const auto fails = [](const std::vector<double>&) { return false; };
  const ImportanceEstimate e = importance_sample(3, 1000, {1.0}, fails);
  EXPECT_DOUBLE_EQ(e.probability, 0.0);
  EXPECT_EQ(e.hits, 0u);
  EXPECT_THROW(importance_sample(3, 0, {1.0}, fails), InvalidArgument);
  EXPECT_THROW(importance_sample(3, 10, {}, fails), InvalidArgument);
}

TEST(DesignPoint, FindsLinearLimitState) {
  // g(z) = 3 - z0: fails for z0 > 3; design point must be (3, 0).
  const auto g = [](const std::vector<double>& z) { return 3.0 - z[0]; };
  const auto dp = design_point_on_gradient(g, 2);
  ASSERT_EQ(dp.size(), 2u);
  EXPECT_NEAR(dp[0], 3.0, 1e-6);
  EXPECT_NEAR(dp[1], 0.0, 1e-6);
}

TEST(DesignPoint, EmptyWhenNoFailureInRange) {
  const auto g = [](const std::vector<double>&) { return 1.0; };
  EXPECT_TRUE(design_point_on_gradient(g, 2, 5.0).empty());
  const auto bad = [](const std::vector<double>&) { return -1.0; };
  EXPECT_THROW(design_point_on_gradient(bad, 2), InvalidArgument);
}

TEST(MarginTail, NominalMarginMatchesSchemeMath) {
  TailConfig cfg;
  const std::vector<double> origin(kTailDimensions, 0.0);
  const double m = nondestructive_margin_at(cfg, origin);
  const NondestructiveSelfReference scheme(MtjParams::paper_calibrated(),
                                           Ohm(917.0), cfg.selfref);
  EXPECT_NEAR(m, scheme.margins(scheme.paper_beta()).min().value(), 1e-12);
  EXPECT_THROW(nondestructive_margin_at(cfg, {0.0}), InvalidArgument);
}

TEST(MarginTail, EstimateConsistentWithZeroFailuresIn16kb) {
  TailConfig cfg;
  const TailEstimate e = estimate_margin_tail(cfg, 5, 8000);
  ASSERT_FALSE(e.design_point.empty());
  EXPECT_GT(e.design_radius, 3.0);
  EXPECT_GT(e.estimate.probability, 0.0);
  // Calibrated so a 16-kb array usually shows zero failing bits.
  EXPECT_LT(e.expected_failures_16kb, 2.0);
  EXPECT_LT(e.estimate.relative_error, 0.2);
}

TEST(MarginTail, TighterThresholdMeansMoreFailures) {
  TailConfig loose;
  loose.threshold = Volt(6e-3);
  TailConfig tight;
  tight.threshold = Volt(10e-3);
  const TailEstimate e_loose = estimate_margin_tail(loose, 5, 8000);
  const TailEstimate e_tight = estimate_margin_tail(tight, 5, 8000);
  EXPECT_LT(e_loose.estimate.probability, e_tight.estimate.probability);
}

}  // namespace
}  // namespace sttram
