// Resistance-vs-read-current models of an MgO MTJ (the paper's Fig. 2).
//
// All sensing math in this library consumes the abstract RiModel, so the
// schemes can be evaluated against the calibrated linear law (default),
// a physical Simmons-type tunneling law, or a measured table.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>

#include "sttram/common/numeric.hpp"
#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/mtj_state.hpp"

namespace sttram {

/// Static R(I) characteristic of one MTJ: resistance of each magnetization
/// state as a function of the applied read current.  Implementations must
/// be even in current (read polarity does not matter for the static
/// resistance) and non-increasing in |I| (tunnel conductance rises with
/// bias).
class RiModel {
 public:
  virtual ~RiModel() = default;

  /// Resistance of `state` at read current `i` (uses |i|).
  [[nodiscard]] virtual Ohm resistance(MtjState state, Ampere i) const = 0;

  /// Deep copy.
  [[nodiscard]] virtual std::unique_ptr<RiModel> clone() const = 0;

  /// TMR at read current `i`: (R_AP - R_P) / R_P.
  [[nodiscard]] double tmr(Ampere i) const;

  /// Resistance droop of `state` between currents `i_from` and `i_to`
  /// (positive when |i_to| > |i_from|): R(i_from) - R(i_to).
  [[nodiscard]] Ohm droop(MtjState state, Ampere i_from, Ampere i_to) const;
};

/// The calibrated piecewise-linear roll-off law (DESIGN.md §2):
///   R_s(I) = R_s0 - dR_s,max * |I| / I_ref.
/// Validated against every derived number preserved in the paper text.
class LinearRiModel final : public RiModel {
 public:
  explicit LinearRiModel(MtjParams params);

  [[nodiscard]] Ohm resistance(MtjState state, Ampere i) const override;
  [[nodiscard]] std::unique_ptr<RiModel> clone() const override;

  [[nodiscard]] const MtjParams& params() const { return params_; }

  /// The law on plain doubles: R_s [Ohm] at read current `i` [A].  The
  /// one body of the law; resistance() returns it, and the circuit
  /// simulator's MTJ element runs it inline in its Newton loop.  The law
  /// is calibrated over the measured sweep [0, i_droop_ref] and
  /// extrapolated at most 50 % beyond it; past that (write-level
  /// currents) the resistance is held constant, keeping v(i) monotone.
  [[nodiscard]] double ohms(MtjState state, double i) const {
    const double frac =
        std::min(std::fabs(i) / params_.i_droop_ref.value(), 1.5);
    if (state == MtjState::kParallel) {
      return params_.r_low0.value() - params_.droop_low.value() * frac;
    }
    return params_.r_high0.value() - params_.droop_high.value() * frac;
  }

 private:
  MtjParams params_;
};

/// Simmons-type tunneling law: the junction conductance grows
/// quadratically with bias voltage,
///   G_s(V) = G_s0 * (1 + (V / V_h,s)^2),
/// and the resistance at a forced current I is found by solving
/// V * G_s(V) = I for V.  The high state has a much smaller V_h (stronger
/// nonlinearity), which is the physical origin of the steep AP roll-off.
class SimmonsRiModel final : public RiModel {
 public:
  struct Params {
    Ohm r_low0{12200.0};   ///< zero-bias parallel resistance
    Ohm r_high0{25000.0};  ///< zero-bias anti-parallel resistance
    Volt v_half_low{3.0};  ///< bias where P-state conductance doubles
    Volt v_half_high{0.9}; ///< bias where AP-state conductance doubles
  };

  explicit SimmonsRiModel(Params params);

  /// Builds a Simmons model whose droop at `calib.i_droop_ref` matches the
  /// calibrated linear model for both states (same endpoints, curved path
  /// between them).
  static SimmonsRiModel calibrated_to(const MtjParams& calib);

  [[nodiscard]] Ohm resistance(MtjState state, Ampere i) const override;
  [[nodiscard]] std::unique_ptr<RiModel> clone() const override;

  [[nodiscard]] const Params& params() const { return params_; }

  /// Bias voltage across the junction in `state` at forced current `i`.
  [[nodiscard]] Volt bias_voltage(MtjState state, Ampere i) const;

 private:
  Params params_;
};

/// Table-driven model through measured (I, R) samples per state, linearly
/// interpolated, clamped outside the sweep (the paper's "DC extrapolation"
/// of missing pulse-measurement points).
class TableRiModel final : public RiModel {
 public:
  /// `currents` in amperes (strictly increasing, non-negative); one
  /// resistance vector per state, in ohms.
  TableRiModel(std::vector<double> currents, std::vector<double> r_low,
               std::vector<double> r_high);

  /// Samples any other model on a uniform grid — handy for exporting a
  /// curve or for round-trip tests.
  static TableRiModel sampled_from(const RiModel& model, Ampere i_max,
                                   int points);

  [[nodiscard]] Ohm resistance(MtjState state, Ampere i) const override;
  [[nodiscard]] std::unique_ptr<RiModel> clone() const override;

 private:
  PiecewiseLinear low_;
  PiecewiseLinear high_;
};

}  // namespace sttram
