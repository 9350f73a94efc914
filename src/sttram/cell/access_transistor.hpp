// NMOS access-device resistance models.
//
// The 1T1J read path sees the access transistor as a series resistance
// R_T that is *not quite* constant: even in the linear region the channel
// resistance rises with drain current (V_ds de-biases the channel).  The
// paper's robustness analysis sweeps exactly this shift dR = R_T(I2) -
// R_T(I1), so the library provides both a physical linear-region model
// and a directly parameterized shifted resistor for sweeps.
#pragma once

#include <memory>

#include "sttram/common/units.hpp"

namespace sttram {

/// Series resistance of the access device as a function of read current.
class AccessDeviceModel {
 public:
  virtual ~AccessDeviceModel() = default;

  /// Effective resistance V_ds / I_ds at drain current `i` (uses |i|).
  [[nodiscard]] virtual Ohm resistance(Ampere i) const = 0;

  [[nodiscard]] virtual std::unique_ptr<AccessDeviceModel> clone() const = 0;

  /// Resistance shift between two read currents: R(i2) - R(i1).
  [[nodiscard]] Ohm shift(Ampere i1, Ampere i2) const {
    return resistance(i2) - resistance(i1);
  }
};

/// Ideal fixed resistor (the paper's R_T = R_T1 = R_T2 assumption).
class FixedAccessResistor final : public AccessDeviceModel {
 public:
  explicit FixedAccessResistor(Ohm r);

  [[nodiscard]] Ohm resistance(Ampere) const override { return r_; }
  [[nodiscard]] std::unique_ptr<AccessDeviceModel> clone() const override;

 private:
  Ohm r_;
};

/// Physical level-1 NMOS in the linear/triode region: solves
///   I = beta * ((Vgs - Vt) * Vds - Vds^2 / 2)
/// for Vds and reports Vds / I.  As I -> 0 this tends to
/// 1 / (beta * (Vgs - Vt)); at finite current the resistance rises, which
/// is the physical origin of the dR the paper analyzes.
class LinearRegionNmos final : public AccessDeviceModel {
 public:
  struct Params {
    double beta = 0.0;  ///< transconductance factor uCox*W/L [A/V^2]
    Volt vth{0.45};     ///< threshold voltage
    Volt vgs{1.2};      ///< gate drive (word-line high level)
  };

  explicit LinearRegionNmos(Params p);

  /// Builds a device whose zero-current resistance equals `r_on` at the
  /// given gate drive (beta = 1 / (r_on * (vgs - vth))).  Used to match
  /// the paper's R_T = 917 Ohm.
  static LinearRegionNmos with_on_resistance(Ohm r_on, Volt vgs = Volt(1.2),
                                             Volt vth = Volt(0.45));

  [[nodiscard]] Ohm resistance(Ampere i) const override;
  [[nodiscard]] std::unique_ptr<AccessDeviceModel> clone() const override;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace sttram
