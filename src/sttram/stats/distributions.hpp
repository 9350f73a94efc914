// Samplers for the process-variation distributions used by the models.
#pragma once

#include "sttram/stats/rng.hpp"

namespace sttram {

/// Standard-normal deviate (Marsaglia polar method; deterministic given
/// the generator state).
double sample_standard_normal(Xoshiro256& rng);

/// Normal deviate with the given mean and standard deviation.
double sample_normal(Xoshiro256& rng, double mean, double stddev);

/// Lognormal deviate: exp(N(mu, sigma)).  Note mu/sigma are the
/// parameters of the underlying normal, not the lognormal mean.
double sample_lognormal(Xoshiro256& rng, double mu, double sigma);

/// Lognormal deviate parameterized so its *median* is `median` and the
/// underlying normal has relative sigma `sigma_rel` — the natural
/// parameterization for multiplicative process variation (a barrier 0.1 A
/// thicker multiplies resistance by a constant factor).
double sample_lognormal_median(Xoshiro256& rng, double median,
                               double sigma_rel);

/// Exponential deviate with the given mean, by inversion of one uniform
/// draw: -mean * log1p(-u).  The traffic workloads' interarrival and
/// think times.
double sample_exponential(Xoshiro256& rng, double mean);

/// A normal N(mean, stddev) truncated to [lo, hi].
struct TruncatedNormal {
  double mean = 0.0;
  double stddev = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Draws sample_truncated_normal makes before it gives up.
inline constexpr int kTruncatedNormalMaxTries = 100000;

/// Normal deviate truncated to [lo, hi] by rejection (lo < hi required;
/// throws NumericError after kTruncatedNormalMaxTries rejected draws).
double sample_truncated_normal(Xoshiro256& rng, double mean, double stddev,
                               double lo, double hi);

/// Standard normal CDF Phi(x).
double normal_cdf(double x);

/// Inverse standard normal CDF (Acklam's rational approximation refined
/// with one Halley step; |error| < 1e-12 over (0,1)).
double normal_quantile(double p);

}  // namespace sttram
