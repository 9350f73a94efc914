#include "sttram/spice/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "sttram/common/error.hpp"

namespace sttram::spice {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void Matrix::clear() { std::fill(data_.begin(), data_.end(), 0.0); }

double lu_factor_in_place(Matrix& a, std::vector<std::size_t>& perm) {
  require(a.rows() == a.cols(), "lu_factor_in_place: matrix must be square");
  const std::size_t n = a.rows();
  perm.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  double min_pivot = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(a(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(a(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw CircuitError(
          "LuFactorization: singular MNA matrix (floating node or "
          "voltage-source loop?)");
    }
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

void lu_solve_in_place(const Matrix& lu, std::span<const std::size_t> perm,
                       std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  require(perm.size() == n && b.size() == n && x.size() == n,
          "lu_solve_in_place: size mismatch");
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm[i]];
  // Zero factors are skipped, which shortens the dependency chain of each
  // row's sum.  s - 0.0 * x[c] == s bit for bit whenever x[c] is finite
  // and s is not -0.0; a sum that starts at an MNA right-hand side (built
  // by adding stamps to +0.0) is never -0.0.
  // Forward substitution (unit lower triangle).
  for (std::size_t r = 1; r < n; ++r) {
    double s = x[r];
    for (std::size_t c = 0; c < r; ++c) {
      const double l = lu(r, c);
      if (l != 0.0) s -= l * x[c];
    }
    x[r] = s;
  }
  // Back substitution.
  for (std::size_t rr = n; rr-- > 0;) {
    double s = x[rr];
    for (std::size_t c = rr + 1; c < n; ++c) {
      const double u = lu(rr, c);
      if (u != 0.0) s -= u * x[c];
    }
    x[rr] = s / lu(rr, rr);
  }
}

}  // namespace sttram::spice
