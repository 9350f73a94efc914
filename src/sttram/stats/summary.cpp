#include "sttram/stats/summary.hpp"

#include <cmath>

#include "sttram/common/error.hpp"

namespace sttram {

double pearson_correlation(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  require(xs.size() == ys.size(),
          "pearson_correlation: size mismatch between samples");
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace sttram
