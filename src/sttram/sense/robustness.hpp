// Robustness analysis (the paper's Sec. IV): validity windows of the
// read-current ratio beta, the access-transistor resistance shift dR and
// the divider-ratio deviation d-alpha, computed as exact
// margin-positivity windows of the scheme under analysis.
#pragma once

#include "sttram/sense/margins.hpp"

namespace sttram {

/// Range of beta with both sense margins positive (Fig. 6's "valid beta
/// ratio" arrows).  Searches [beta_lo, beta_hi]; invalid when margins
/// are nowhere positive.
Window beta_window(const SelfReferenceScheme& scheme,
                   double beta_lo = 1.0 + 1e-9, double beta_hi = 16.0);

/// Range of the NMOS resistance shift dR (in ohms) keeping both margins
/// positive at fixed `beta` (Fig. 7 / Table II).  Margins are linear in
/// dR, so the bounds are solved in closed form from two margin samples.
Window delta_r_window(const SelfReferenceScheme& scheme, double beta);

/// Range of the divider-ratio relative deviation keeping both margins
/// positive at fixed `beta` (Fig. 8 / Table II).  Only meaningful for
/// schemes whose margins depend on alpha; for the destructive scheme the
/// window is unbounded and `valid` is false.
Window alpha_window(const SelfReferenceScheme& scheme, double beta,
                    double lo = -0.5, double hi = 0.5);

/// Summary row for Table II.
struct RobustnessSummary {
  Window beta;       ///< absolute valid beta range
  Window delta_r;    ///< ohms
  Window alpha_dev;  ///< relative (invalid for the destructive scheme)
  double designed_beta = 0.0;
  SenseMargins margins_at_design;
};

/// Computes the full Table II row for a scheme at its designed beta.
RobustnessSummary analyze_robustness(const SelfReferenceScheme& scheme,
                                     double designed_beta);

}  // namespace sttram
