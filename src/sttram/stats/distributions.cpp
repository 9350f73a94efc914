#include "sttram/stats/distributions.hpp"

#include <cmath>

#include "sttram/common/error.hpp"

namespace sttram {

double sample_standard_normal(Xoshiro256& rng) {
  // Marsaglia polar method.  We deliberately discard the second deviate to
  // keep the sampler stateless with respect to the caller.
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Xoshiro256& rng, double mean, double stddev) {
  require(stddev >= 0.0, "sample_normal: stddev must be >= 0");
  return mean + stddev * sample_standard_normal(rng);
}

double sample_lognormal(Xoshiro256& rng, double mu, double sigma) {
  require(sigma >= 0.0, "sample_lognormal: sigma must be >= 0");
  return std::exp(mu + sigma * sample_standard_normal(rng));
}

double sample_lognormal_median(Xoshiro256& rng, double median,
                               double sigma_rel) {
  require(median > 0.0, "sample_lognormal_median: median must be > 0");
  return sample_lognormal(rng, std::log(median), sigma_rel);
}

double sample_exponential(Xoshiro256& rng, double mean) {
  return -mean * std::log1p(-rng.next_double());
}

double sample_truncated_normal(Xoshiro256& rng, double mean, double stddev,
                               double lo, double hi) {
  require(lo < hi, "sample_truncated_normal: lo must be < hi");
  if (stddev == 0.0) {
    require(mean >= lo && mean <= hi,
            "sample_truncated_normal: degenerate mean outside [lo, hi]");
    return mean;
  }
  for (int i = 0; i < kTruncatedNormalMaxTries; ++i) {
    const double x = sample_normal(rng, mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  throw NumericError(
      "sample_truncated_normal: rejection sampling failed (window too far "
      "in the tail)");
}

double normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double normal_quantile(double p) {
  require(p > 0.0 && p < 1.0, "normal_quantile: p must be in (0, 1)");
  // Acklam's rational approximation.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
          c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step using the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(x * x / 2.0);
  x = x - u / (1.0 + x * u / 2.0);
  return x;
}

}  // namespace sttram
