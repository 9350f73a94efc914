#include "spice_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sttram/common/error.hpp"

namespace sttram::oracle {

double lu_factor(spice::Matrix& a, std::vector<std::size_t>& perm) {
  const std::size_t n = a.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  double min_pivot = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(a(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) throw CircuitError("oracle::lu_factor: singular");
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a(k, c), a(pivot_row, c));
      }
      std::swap(perm[k], perm[pivot_row]);
    }
    min_pivot = std::min(min_pivot, pivot_mag);
    const double inv_pivot = 1.0 / a(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a(r, k) * inv_pivot;
      a(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        a(r, c) -= factor * a(k, c);
      }
    }
  }
  return min_pivot;
}

void lu_solve(const spice::Matrix& lu, std::span<const std::size_t> perm,
              std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  for (std::size_t r = 1; r < n; ++r) {
    double s = x[r];
    for (std::size_t c = 0; c < r; ++c) {
      const double l = lu(r, c);
      if (l != 0.0) s -= l * x[c];
    }
    x[r] = s;
  }
  for (std::size_t rr = n; rr-- > 0;) {
    double s = x[rr];
    for (std::size_t c = rr + 1; c < n; ++c) {
      const double u = lu(rr, c);
      if (u != 0.0) s -= u * x[c];
    }
    x[rr] = s / lu(rr, rr);
  }
}

double mtj_current(const LinearRiModel& model, MtjState state, double v) {
  const double v_mag = std::fabs(v);
  if (v_mag == 0.0) return 0.0;
  const double r_zero_bias = model.resistance(state, Ampere(0.0)).value();
  double i = v_mag / r_zero_bias;
  for (int iter = 0; iter < 80; ++iter) {
    const double r = model.resistance(state, Ampere(i)).value();
    const double f = i * r - v_mag;
    const double h = std::max(1e-12, 1e-6 * i);
    const double r2 = model.resistance(state, Ampere(i + h)).value();
    const double dvdi = r + i * (r2 - r) / h;
    if (dvdi <= 0.0) break;
    const double step = f / dvdi;
    i -= step;
    if (i < 0.0) i = 0.0;
    if (std::fabs(step) < 1e-15 * (1.0 + i)) break;
  }
  return v >= 0.0 ? i : -i;
}

MtjStamp mtj_stamp(const LinearRiModel& model, MtjState state, double v0) {
  const double i0 = mtj_current(model, state, v0);
  const double dv = std::max(1e-9, 1e-6 * std::fabs(v0));
  const double i1 = mtj_current(model, state, v0 + dv);
  double g = (i1 - i0) / dv;
  if (!(g > 0.0) || !std::isfinite(g)) {
    g = 1.0 / model.resistance(state, Ampere(0.0)).value();
  }
  return {g, i0 - g * v0};
}

}  // namespace sttram::oracle
