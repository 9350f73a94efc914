// Differential oracles for the MNA solver's hot loops.
//
// The library's dense LU (spice/matrix.cpp) is one loop body over the
// matrix order, unrolled at the read circuits' orders, and its MTJ
// element solves the two currents of its finite-difference stamp as two
// lanes of one Newton loop.  This file keeps the plain loops those
// replace, written out once more: the row-by-row LU with partial
// pivoting and its substitutions, and the one-voltage damped Newton of
// i * R(|i|) = v through LinearRiModel::resistance.  Tests compare the
// library against them bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sttram/device/mtj_state.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/spice/matrix.hpp"

namespace sttram::oracle {

/// LU factorization with partial pivoting (first row of largest
/// magnitude), in place; returns the smallest pivot magnitude.  Throws
/// CircuitError on a pivot below 1e-300.
double lu_factor(spice::Matrix& a, std::vector<std::size_t>& perm);

/// Forward and back substitution from lu_factor's factors.
void lu_solve(const spice::Matrix& lu, std::span<const std::size_t> perm,
              std::span<const double> b, std::span<double> x);

/// The MTJ branch current at element voltage v: damped Newton on
/// i * R(|i|) = |v| from i = |v| / R(0), at most 80 iterations.
double mtj_current(const LinearRiModel& model, MtjState state, double v);

/// The MTJ element's companion model at element voltage v0: conductance
/// g from a forward difference of mtj_current, and the current ieq that
/// leaves the first terminal at zero excursion.
struct MtjStamp {
  double g;
  double ieq;
};
MtjStamp mtj_stamp(const LinearRiModel& model, MtjState state, double v0);

}  // namespace sttram::oracle
