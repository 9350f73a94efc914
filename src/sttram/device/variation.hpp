// Process-variation model for MTJ devices.
//
// The dominant term is oxide-barrier thickness: tunnel resistance depends
// exponentially on barrier thickness (the paper quotes +8 % resistance
// per 0.1 A at a 14 A barrier), so thickness variation produces a
// *lognormal, common-mode* multiplicative factor on both resistance
// states of a junction.  A second, independent lognormal factor models
// TMR / interface-quality variation of the high-state excess resistance,
// and a normal term models critical-current (area) variation.
#pragma once

#include <cstddef>

#include "sttram/device/mtj_params.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// Relative sigmas of the variation components.
struct VariationParams {
  /// Lognormal sigma of the common-mode (barrier thickness) resistance
  /// factor.  Default calibrated so the conventional referenced sensing
  /// scheme fails on ~1 % of a 16-kb array, as the paper's test chip
  /// measured (DESIGN.md §7).
  double sigma_common = 0.06;
  /// Lognormal sigma of the independent TMR (high-state excess) factor.
  double sigma_tmr = 0.015;
  /// Normal relative sigma of the critical switching current.
  double sigma_icrit = 0.05;

  /// Identity variation (every sampled device equals the nominal one).
  static VariationParams none() { return {0.0, 0.0, 0.0}; }
};

/// Per-device sampled variation factors (kept separate from MtjParams so
/// experiments can report which component caused a failure).
struct MtjVariationDraw {
  double common = 1.0;      ///< barrier-thickness resistance factor
  double tmr_scale = 1.0;   ///< high-state excess scale
  double icrit_scale = 1.0; ///< critical-current scale
};

/// Samples device instances around a nominal device.
class MtjVariationModel {
 public:
  MtjVariationModel(MtjParams nominal, VariationParams variation);

  /// Draws the raw variation factors.
  [[nodiscard]] MtjVariationDraw draw(Xoshiro256& rng) const;

  /// The critical-current factor's normal N(1, sigma_icrit), truncated at
  /// +-4 sigma with the lower bound held at >= 0.05 to keep it positive.
  [[nodiscard]] TruncatedNormal icrit_factor() const;

  /// Draws a complete device parameter set.
  [[nodiscard]] MtjParams sample(Xoshiro256& rng) const;

  /// Applies a draw to the nominal parameters (deterministic; lets tests
  /// and corner analyses construct exact instances).
  [[nodiscard]] MtjParams apply(const MtjVariationDraw& d) const;

  [[nodiscard]] const MtjParams& nominal() const { return nominal_; }
  [[nodiscard]] const VariationParams& variation() const {
    return variation_;
  }

  /// Worst-case corner at `n_sigma`: returns the parameter set whose
  /// common-mode factor sits n_sigma away in the direction given by
  /// the signs (+1 / -1) of `common_dir` and `tmr_dir`.
  [[nodiscard]] MtjParams corner(double n_sigma, int common_dir,
                                 int tmr_dir) const;

 private:
  MtjParams nominal_;
  VariationParams variation_;
};

/// Converts the paper's barrier-thickness sensitivity ("+8 % resistance
/// per 0.1 A") and a thickness sigma in angstroms into the lognormal
/// sigma_common used above: sigma = ln(1.08) * (sigma_angstrom / 0.1).
double sigma_common_from_thickness(double sigma_angstrom,
                                   double pct_per_tenth_angstrom = 0.08);

/// Samples lanes [first, first + count) of the cell population into
/// `out`, replicating MemoryArray's per-cell draw sequence exactly:
/// fork the cell's stream, draw the MTJ variation, then the lognormal
/// access-device factor around `r_access_nominal`.  The streams are
/// forked and their polar rejection loops run W lanes at a time on the
/// active SIMD ISA (stage_polar_rows, stats/batch.hpp), each lane in its
/// exact scalar order; the dropped critical-current draw is a rejection
/// slot there.  log and exp stay scalar libm calls per lane.
void sample_variation_block(const Xoshiro256& master,
                            const MtjVariationModel& variation,
                            double r_access_nominal, double sigma_access,
                            std::size_t first, std::size_t count,
                            VariationBlock& out);

}  // namespace sttram
