// Streaming summary statistics, percentiles and histograms.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "sttram/common/simd.hpp"

namespace sttram {

/// Welford's streaming update for W accumulators held in SIMD lanes, each
/// taking one observation per add().  Every lane runs the operations of
/// one scalar update in the same order (min/max as std::min/std::max,
/// the mean's delta / n, the squared-deviation sum), so lane i holds
/// exactly the bits a RunningStats fed lane i's values would.
/// RunningStats is the W = 1 case; the yield record (sim/yield.cpp)
/// keeps its eight margin accumulators as lanes.
template <int W>
struct WelfordLanes {
  using V = simd::Vec<W>;

  std::size_t n = 0;
  V mean = V::splat(0.0);
  V m2 = V::splat(0.0);
  V min = V::splat(0.0);
  V max = V::splat(0.0);

  void add(V x) {
    if (n == 0) {
      min = x;
      max = x;
    } else {
      min = vmin(min, x);
      max = vmax(max, x);
    }
    ++n;
    const V delta = x - mean;
    mean = mean + delta / V::splat(static_cast<double>(n));
    m2 = m2 + delta * (x - mean);
  }
};

/// Numerically stable (Welford) streaming mean/variance/min/max.
/// Header-only so low-level layers (e.g. the obs telemetry registry) can
/// use it without linking sttram_stats.
class RunningStats {
 public:
  RunningStats() = default;
  /// The accumulator held in lane `lane` of `w`.
  template <int W>
  RunningStats(const WelfordLanes<W>& w, int lane) {
    w_.n = w.n;
    w_.mean.v = w.mean[lane];
    w_.m2.v = w.m2[lane];
    w_.min.v = w.min[lane];
    w_.max.v = w.max[lane];
  }

  /// Adds one observation.
  void add(double x) { w_.add(simd::Vec<1>{x}); }

  [[nodiscard]] std::size_t count() const { return w_.n; }
  [[nodiscard]] double mean() const { return w_.mean.v; }
  /// Unbiased sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const {
    if (w_.n < 2) return 0.0;
    return w_.m2.v / static_cast<double>(w_.n - 1);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }
  [[nodiscard]] double min() const { return w_.min.v; }
  [[nodiscard]] double max() const { return w_.max.v; }
  /// stddev / |mean| (coefficient of variation); 0 when mean == 0.
  [[nodiscard]] double cv() const {
    if (w_.mean.v == 0.0) return 0.0;
    return stddev() / std::fabs(w_.mean.v);
  }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other) {
    const WelfordLanes<1>& b = other.w_;
    if (b.n == 0) return;
    if (w_.n == 0) {
      *this = other;
      return;
    }
    const double na = static_cast<double>(w_.n);
    const double nb = static_cast<double>(b.n);
    const double delta = b.mean.v - w_.mean.v;
    const double n = na + nb;
    w_.mean.v += delta * nb / n;
    w_.m2.v += b.m2.v + delta * delta * na * nb / n;
    w_.min.v = std::min(w_.min.v, b.min.v);
    w_.max.v = std::max(w_.max.v, b.max.v);
    w_.n += b.n;
  }

 private:
  WelfordLanes<1> w_;
};

/// Percentile of a sample using linear interpolation between order
/// statistics (the "linear" / type-7 definition).  `q` in [0, 1].
/// The input vector is copied; use percentile_inplace to avoid the copy.
double percentile(std::vector<double> sample, double q);

/// As percentile(), but partially sorts `sample` in place.
double percentile_inplace(std::vector<double>& sample, double q);

/// Fixed-width histogram over [lo, hi] with out-of-range counters.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const;
  [[nodiscard]] std::size_t underflow() const { return underflow_; }
  [[nodiscard]] std::size_t overflow() const { return overflow_; }
  [[nodiscard]] std::size_t total() const { return total_; }
  /// Center x-value of a bin.
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// Renders an ASCII bar chart, `width` characters for the tallest bin.
  [[nodiscard]] std::string to_ascii(int width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

/// Pearson correlation of two equal-length samples; 0 for degenerate input.
double pearson_correlation(const std::vector<double>& xs,
                           const std::vector<double>& ys);

}  // namespace sttram
