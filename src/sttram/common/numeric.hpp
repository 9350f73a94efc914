// Scalar numeric utilities: root finding, quadratic solving, interpolation.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace sttram {

/// Result of solving a*x^2 + b*x + c = 0 over the reals.
struct QuadraticRoots {
  int count = 0;      ///< number of real roots (0, 1, or 2)
  double lo = 0.0;    ///< smaller root (valid when count >= 1)
  double hi = 0.0;    ///< larger root (valid when count == 2; == lo if 1)
};

/// Solves a*x^2 + b*x + c = 0.  Degenerates gracefully to the linear case
/// when |a| is negligible.  Uses the numerically stable citardauq form to
/// avoid cancellation for small roots.
QuadraticRoots solve_quadratic(double a, double b, double c);

/// Brent's method root finder on [lo, hi].  Requires f(lo) and f(hi) to
/// have opposite signs (throws NumericError otherwise); converges
/// superlinearly on smooth functions.
double brent(const std::function<double(double)>& f, double lo, double hi,
             double tol = 1e-12, int max_iter = 200);

/// True when |a - b| <= atol + rtol * max(|a|, |b|).
bool approx_equal(double a, double b, double rtol = 1e-9, double atol = 0.0);

/// Piecewise-linear function through sample points (x strictly increasing).
/// Evaluation clamps to the end values outside the covered range, matching
/// how a measured device curve is extrapolated flat beyond the sweep.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  /// Builds from (x, y) pairs; `xs` must be strictly increasing and the
  /// two vectors equally sized with at least two points.
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  /// Interpolated value at `x` (clamped outside the range).
  [[nodiscard]] double operator()(double x) const;

  [[nodiscard]] std::size_t size() const { return xs_.size(); }
  [[nodiscard]] double x_min() const { return xs_.front(); }
  [[nodiscard]] double x_max() const { return xs_.back(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// Returns `steps + 1` uniformly spaced values covering [lo, hi] inclusive.
std::vector<double> linspace(double lo, double hi, int steps);

}  // namespace sttram
