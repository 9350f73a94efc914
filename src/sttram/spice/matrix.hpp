// Dense linear algebra for the MNA solver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sttram::spice {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  // Inline: every element stamp writes through these.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Sets every entry to zero (keeps dimensions and storage).
  void clear();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting of the square matrix `a`, in
/// place: afterwards the strict lower triangle of `a` holds L (unit
/// diagonal implied) and the rest U, both of the row-permuted matrix, and
/// `perm[i]` is the original row now at row i.  `perm` is resized to the
/// matrix order (no allocation once it has that capacity).  Returns the
/// smallest pivot magnitude met, a crude condition indicator.  Throws
/// CircuitError when the matrix is numerically singular.
double lu_factor_in_place(Matrix& a, std::vector<std::size_t>& perm);

/// Solves A x = b into `x` from the factors lu_factor_in_place left in
/// `lu` and `perm`.  `b` and `x` have the matrix order and must not
/// overlap.
void lu_solve_in_place(const Matrix& lu, std::span<const std::size_t> perm,
                       std::span<const double> b, std::span<double> x);

/// Owning LU factorization over lu_factor_in_place / lu_solve_in_place.
class LuFactorization {
 public:
  explicit LuFactorization(Matrix a);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Smallest |pivot| met during elimination — a crude condition
  /// indicator.
  [[nodiscard]] double min_pivot() const { return min_pivot_; }

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  double min_pivot_ = 0.0;
};

/// One-shot solve of A x = b.
std::vector<double> solve_linear_system(Matrix a,
                                        const std::vector<double>& b);

}  // namespace sttram::spice
