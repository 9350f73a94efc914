#include "sttram/common/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sttram/common/error.hpp"

namespace sttram {

QuadraticRoots solve_quadratic(double a, double b, double c) {
  QuadraticRoots r;
  const double scale = std::max({std::fabs(a), std::fabs(b), std::fabs(c)});
  if (scale == 0.0) return r;  // 0 = 0: treat as no isolated roots
  if (std::fabs(a) < 1e-300 * scale || a == 0.0) {
    if (b == 0.0) return r;
    r.count = 1;
    r.lo = r.hi = -c / b;
    return r;
  }
  const double disc = b * b - 4.0 * a * c;
  if (disc < 0.0) return r;
  if (disc == 0.0) {
    r.count = 1;
    r.lo = r.hi = -b / (2.0 * a);
    return r;
  }
  // q = -(b + sign(b)*sqrt(disc)) / 2 avoids catastrophic cancellation.
  const double sq = std::sqrt(disc);
  const double q = -0.5 * (b + (b >= 0.0 ? sq : -sq));
  double x1 = q / a;
  double x2 = (q != 0.0) ? c / q : (-b / a - x1);
  if (x1 > x2) std::swap(x1, x2);
  r.count = 2;
  r.lo = x1;
  r.hi = x2;
  return r;
}

double brent(const std::function<double(double)>& f, double lo, double hi,
             double tol, int max_iter) {
  require(lo < hi, "brent: lo must be < hi");
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  if (fa * fb > 0.0) {
    throw NumericError("brent: f(lo) and f(hi) have the same sign");
  }
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (int iter = 0; iter < max_iter; ++iter) {
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    const double tol1 =
        2.0 * std::numeric_limits<double>::epsilon() * std::fabs(b) +
        0.5 * tol;
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) return b;
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      // Attempt inverse quadratic interpolation / secant.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * xm * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::fabs(p);
      const double min1 = 3.0 * xm * q - std::fabs(tol1 * q);
      const double min2 = std::fabs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::fabs(d) > tol1) {
      b += d;
    } else {
      b += (xm > 0.0 ? tol1 : -tol1);
    }
    fb = f(b);
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      e = d = b - a;
    }
  }
  return b;
}

bool approx_equal(double a, double b, double rtol, double atol) {
  return std::fabs(a - b) <=
         atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs,
                                 std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  require(xs_.size() == ys_.size(),
          "PiecewiseLinear: xs and ys must have equal size");
  require(xs_.size() >= 2, "PiecewiseLinear: need at least two points");
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    require(xs_[i] > xs_[i - 1],
            "PiecewiseLinear: xs must be strictly increasing");
  }
}

double PiecewiseLinear::operator()(double x) const {
  require(!xs_.empty(), "PiecewiseLinear: empty table");
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs_.begin());
  const double t = (x - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
  return ys_[i - 1] + t * (ys_[i] - ys_[i - 1]);
}

std::vector<double> linspace(double lo, double hi, int steps) {
  require(steps >= 1, "linspace: steps must be >= 1");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    out.push_back(lo + (hi - lo) * static_cast<double>(i) / steps);
  }
  return out;
}

}  // namespace sttram
