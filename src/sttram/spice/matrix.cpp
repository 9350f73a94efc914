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

namespace {

/// Runs body(i) for i = first, ..., last - 1.  At a compile-time order
/// (kOrder != 0) every bound is a constant once the enclosing loops are
/// unrolled, and the pragma unrolls this loop completely too; at run-time
/// order (kOrder == 0) it is a plain loop.
template <std::size_t kOrder, class Body>
[[gnu::always_inline]] inline void for_range(std::size_t first,
                                             std::size_t last, Body&& body) {
  if constexpr (kOrder != 0) {
#pragma GCC unroll 16
    for (std::size_t i = first; i < last; ++i) body(i);
  } else {
    for (std::size_t i = first; i < last; ++i) body(i);
  }
}

[[noreturn, gnu::cold]] void throw_singular() {
  throw CircuitError(
      "lu_factor_in_place: singular MNA matrix (floating node or "
      "voltage-source loop?)");
}

/// lu_factor_in_place on the row-major n x n entries `a`, where
/// n = kOrder, or `order` when kOrder is 0.
template <std::size_t kOrder>
double factor_body(double* a, std::size_t* perm, std::size_t order) {
  const std::size_t n = kOrder != 0 ? kOrder : order;
  for_range<kOrder>(0, n, [&](std::size_t i) { perm[i] = i; });
  double min_pivot = std::numeric_limits<double>::infinity();
  for_range<kOrder>(0, n, [&](std::size_t k) {
    // Partial pivoting: the first row of largest magnitude wins.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(a[k * n + k]);
    for_range<kOrder>(k + 1, n, [&](std::size_t r) {
      const double mag = std::fabs(a[r * n + k]);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    });
    if (pivot_mag < 1e-300) throw_singular();
    if (pivot_row != k) {
      for_range<kOrder>(0, n, [&](std::size_t c) {
        std::swap(a[k * n + c], a[pivot_row * n + c]);
      });
      std::swap(perm[k], perm[pivot_row]);
    }
    min_pivot = std::min(min_pivot, pivot_mag);
    const double inv_pivot = 1.0 / a[k * n + k];
    for_range<kOrder>(k + 1, n, [&](std::size_t r) {
      const double factor = a[r * n + k] * inv_pivot;
      a[r * n + k] = factor;
      if (factor == 0.0) return;
      for_range<kOrder>(k + 1, n, [&](std::size_t c) {
        a[r * n + c] -= factor * a[k * n + c];
      });
    });
  });
  return min_pivot;
}

/// lu_solve_in_place on raw arrays, at order kOrder (or `order` when
/// kOrder is 0).
template <std::size_t kOrder>
void solve_body(const double* __restrict lu, const std::size_t* perm,
                const double* __restrict b, double* __restrict x,
                std::size_t order) {
  const std::size_t n = kOrder != 0 ? kOrder : order;
  for_range<kOrder>(0, n, [&](std::size_t i) { x[i] = b[perm[i]]; });
  // Zero factors are skipped, which shortens the dependency chain of each
  // row's sum.  s - 0.0 * x[c] == s bit for bit whenever x[c] is finite
  // and s is not -0.0; a sum that starts at an MNA right-hand side (built
  // by adding stamps to +0.0) is never -0.0.
  // Forward substitution (unit lower triangle).
  for_range<kOrder>(1, n, [&](std::size_t r) {
    double s = x[r];
    for_range<kOrder>(0, r, [&](std::size_t c) {
      const double l = lu[r * n + c];
      if (l != 0.0) s -= l * x[c];
    });
    x[r] = s;
  });
  // Back substitution, last row first.
  for_range<kOrder>(0, n, [&](std::size_t j) {
    const std::size_t rr = n - 1 - j;
    double s = x[rr];
    for_range<kOrder>(rr + 1, n, [&](std::size_t c) {
      const double u = lu[rr * n + c];
      if (u != 0.0) s -= u * x[c];
    });
    x[rr] = s / lu[rr * n + rr];
  });
}

}  // namespace

double lu_factor_in_place(Matrix& a, std::vector<std::size_t>& perm) {
  require(a.rows() == a.cols(), "lu_factor_in_place: matrix must be square");
  const std::size_t n = a.rows();
  perm.resize(n);
  switch (n) {
    case 7:
      return factor_body<7>(a.data(), perm.data(), n);
    case 8:
      return factor_body<8>(a.data(), perm.data(), n);
    default:
      return factor_body<0>(a.data(), perm.data(), n);
  }
}

void lu_solve_in_place(const Matrix& lu, std::span<const std::size_t> perm,
                       std::span<const double> b, std::span<double> x) {
  const std::size_t n = lu.rows();
  require(perm.size() == n && b.size() == n && x.size() == n,
          "lu_solve_in_place: size mismatch");
  switch (n) {
    case 7:
      return solve_body<7>(lu.data(), perm.data(), b.data(), x.data(), n);
    case 8:
      return solve_body<8>(lu.data(), perm.data(), b.data(), x.data(), n);
    default:
      return solve_body<0>(lu.data(), perm.data(), b.data(), x.data(), n);
  }
}

}  // namespace sttram::spice
