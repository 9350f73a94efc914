// Tests for sttram/stats: RNG determinism, distribution moments,
// summary statistics, percentiles, Monte-Carlo driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "mc_oracle.hpp"
#include "sttram/common/error.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/monte_carlo.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {
namespace {

using oracle::estimate_probability;
using oracle::ProbabilityEstimate;
using oracle::wilson_interval;

/// Percentile of a sample by linear interpolation between order
/// statistics (the type-7 definition), `q` in [0, 1].
double percentile(std::vector<double> sample, double q) {
  require(!sample.empty(), "percentile: empty sample");
  require(q >= 0.0 && q <= 1.0, "percentile: q must be in [0, 1]");
  const double pos = q * static_cast<double>(sample.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<std::ptrdiff_t>(lo),
                   sample.end());
  const double v_lo = sample[lo];
  if (frac == 0.0 || lo + 1 >= sample.size()) return v_lo;
  const double v_hi = *std::min_element(
      sample.begin() + static_cast<std::ptrdiff_t>(lo) + 1, sample.end());
  return v_lo + frac * (v_hi - v_lo);
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(1234);
  Xoshiro256 b(1234);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(77);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
  const Xoshiro256 master(99);
  Xoshiro256 s0 = master.fork(0);
  Xoshiro256 s1 = master.fork(1);
  std::vector<double> xs, ys;
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(s0.next_double());
    ys.push_back(s1.next_double());
  }
  EXPECT_LT(std::fabs(pearson_correlation(xs, ys)), 0.08);
}

TEST(Rng, ZeroSeedIsSafe) {
  Xoshiro256 rng(0);
  // A naive xoshiro seeded with all-zero state would return 0 forever.
  EXPECT_NE(rng.next_u64(), 0u);
  EXPECT_NE(rng.next_u64(), rng.next_u64());
}

TEST(Distributions, NormalMoments) {
  Xoshiro256 rng(5);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(sample_normal(rng, 3.0, 2.0));
  }
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Distributions, LognormalMedian) {
  Xoshiro256 rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(sample_lognormal_median(rng, 917.0, 0.1));
  }
  EXPECT_NEAR(percentile(xs, 0.5), 917.0, 10.0);
  for (const double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Distributions, TruncatedNormalRespectsBounds) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 5000; ++i) {
    const double x = sample_truncated_normal(rng, 1.0, 0.5, 0.5, 1.5);
    EXPECT_GE(x, 0.5);
    EXPECT_LE(x, 1.5);
  }
  EXPECT_THROW(sample_truncated_normal(rng, 0.0, 0.0, 1.0, 2.0),
               InvalidArgument);
}

TEST(Distributions, NormalCdfQuantileRoundTrip) {
  for (const double p : {0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
  }
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(normal_cdf(2.33)), 2.33, 1e-9);
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.cv(), s.stddev() / 5.0, 1e-15);
}

TEST(RunningStats, MergeEqualsSequential) {
  Xoshiro256 rng(9);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = sample_normal(rng, 0.0, 1.0);
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(MonteCarlo, TrialStreamsAreStable) {
  // Trial i must see the same stream no matter how many trials run.  A
  // serial run calls the trials in index order, so each records its
  // draw at its own position.
  const auto draws = [](std::size_t trials) {
    std::vector<double> out;
    monte_carlo_stats(11, trials, [&out](Xoshiro256& rng) {
      out.push_back(rng.next_double());
      return out.back();
    });
    return out;
  };
  const std::vector<double> few = draws(10);
  const std::vector<double> many = draws(100);
  ASSERT_EQ(few.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(few[i], many[i]);
}

TEST(MonteCarlo, StatsDriver) {
  const RunningStats s = monte_carlo_stats(
      21, 20000, [](Xoshiro256& rng) { return sample_normal(rng, 10.0, 3.0); });
  EXPECT_EQ(s.count(), 20000u);
  EXPECT_NEAR(s.mean(), 10.0, 0.1);
  EXPECT_NEAR(s.stddev(), 3.0, 0.1);
}

TEST(MonteCarlo, WilsonInterval) {
  const ProbabilityEstimate e = wilson_interval(10, 1000);
  EXPECT_DOUBLE_EQ(e.p, 0.01);
  EXPECT_LT(e.ci_lo, 0.01);
  EXPECT_GT(e.ci_hi, 0.01);
  EXPECT_GT(e.ci_lo, 0.0);
  // Degenerate counts stay in [0, 1].
  EXPECT_NEAR(wilson_interval(0, 100).ci_lo, 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(wilson_interval(100, 100).ci_hi, 1.0);
  EXPECT_THROW(wilson_interval(5, 0), InvalidArgument);
  EXPECT_THROW(wilson_interval(5, 4), InvalidArgument);
}

TEST(MonteCarlo, EstimateProbability) {
  const ProbabilityEstimate e = estimate_probability(
      31, 20000,
      [](Xoshiro256& rng) { return rng.next_double() < 0.25; });
  EXPECT_NEAR(e.p, 0.25, 0.01);
  EXPECT_LT(e.ci_lo, 0.25);
  EXPECT_GT(e.ci_hi, 0.25);
}

TEST(Correlation, KnownCases) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  const std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
  const std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(pearson_correlation(x, c), 0.0);  // degenerate
  EXPECT_THROW(pearson_correlation(x, {1.0}), InvalidArgument);
}

}  // namespace
}  // namespace sttram
