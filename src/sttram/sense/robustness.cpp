#include "sttram/sense/robustness.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "sttram/common/error.hpp"
#include "sttram/common/numeric.hpp"

namespace sttram {
namespace {

/// Generic 1-D window finder: the region around a positive-margin seed
/// where `min_margin(x) > 0`.  min_margin must be continuous.
Window window_around_seed(const std::function<double(double)>& min_margin,
                          double lo, double hi, double seed) {
  Window w;
  if (min_margin(seed) <= 0.0) return w;  // no positive region at the seed
  // Lower edge.
  if (min_margin(lo) >= 0.0) {
    w.lo = lo;
  } else {
    w.lo = brent(min_margin, lo, seed, 1e-12 * (std::fabs(seed) + 1.0));
  }
  // Upper edge.
  if (min_margin(hi) >= 0.0) {
    w.hi = hi;
  } else {
    w.hi = brent(min_margin, seed, hi, 1e-12 * (std::fabs(hi) + 1.0));
  }
  w.valid = w.hi > w.lo;
  return w;
}

}  // namespace

Window beta_window(const SelfReferenceScheme& scheme, double beta_lo,
                   double beta_hi) {
  require(beta_lo > 0.0 && beta_hi > beta_lo,
          "beta_window: need 0 < beta_lo < beta_hi");
  const auto min_margin = [&](double beta) {
    return scheme.margins(beta).min().value();
  };
  // Seed at the equal-margin optimum when it exists; otherwise scan.
  double seed = 0.0;
  bool have_seed = false;
  try {
    seed = scheme.optimal_beta(beta_lo, beta_hi);
    have_seed = min_margin(seed) > 0.0;
  } catch (const NumericError&) {
    have_seed = false;
  }
  if (!have_seed) {
    for (const double beta : linspace(beta_lo, beta_hi, 256)) {
      if (min_margin(beta) > 0.0) {
        seed = beta;
        have_seed = true;
        break;
      }
    }
  }
  if (!have_seed) return Window{};
  return window_around_seed(min_margin, beta_lo, beta_hi, seed);
}

Window delta_r_window(const SelfReferenceScheme& scheme, double beta) {
  // Both margins are affine in dR; recover slope/intercept from two
  // samples of each and solve the two zero crossings exactly.
  const auto margins_at = [&](double dr) {
    SchemeMismatch mm;
    mm.delta_r_t = Ohm(dr);
    return scheme.margins(beta, mm);
  };
  const SenseMargins m0 = margins_at(0.0);
  const double probe = 100.0;  // ohms
  const SenseMargins m1 = margins_at(probe);
  const double slope0 = (m1.sm0 - m0.sm0).value() / probe;
  const double slope1 = (m1.sm1 - m0.sm1).value() / probe;
  Window w;
  if (!m0.positive()) return w;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const auto& [inter, slope] :
       {std::pair{m0.sm0.value(), slope0}, std::pair{m0.sm1.value(), slope1}}) {
    if (slope == 0.0) continue;
    const double root = -inter / slope;
    if (slope > 0.0) {
      lo = std::max(lo, root);
    } else {
      hi = std::min(hi, root);
    }
  }
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo >= hi) return w;
  w.lo = lo;
  w.hi = hi;
  w.valid = true;
  return w;
}

Window alpha_window(const SelfReferenceScheme& scheme, double beta,
                    double lo, double hi) {
  const auto min_margin = [&](double dev) {
    SchemeMismatch mm;
    mm.alpha_deviation = dev;
    return scheme.margins(beta, mm).min().value();
  };
  // Detect alpha-independence (destructive scheme): both edges equal the
  // center value.
  const double center = min_margin(0.0);
  if (min_margin(lo) == center && min_margin(hi) == center) {
    return Window{};  // margins do not depend on alpha
  }
  if (center <= 0.0) return Window{};
  return window_around_seed(min_margin, lo, hi, 0.0);
}

RobustnessSummary analyze_robustness(const SelfReferenceScheme& scheme,
                                     double designed_beta) {
  RobustnessSummary s;
  s.designed_beta = designed_beta;
  s.margins_at_design = scheme.margins(designed_beta);
  s.beta = beta_window(scheme);
  s.delta_r = delta_r_window(scheme, designed_beta);
  s.alpha_dev = alpha_window(scheme, designed_beta);
  return s;
}

}  // namespace sttram
