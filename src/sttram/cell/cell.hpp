// The 1T1J STT-RAM cell: one MTJ in series with one NMOS access device.
#pragma once

#include <memory>

#include "sttram/cell/access_transistor.hpp"
#include "sttram/common/units.hpp"
#include "sttram/device/mtj.hpp"

namespace sttram {

/// One-transistor one-MTJ cell (the paper's Fig. 1(c)).  The bit-line
/// voltage under a forced read current I is
///   V_BL = I * (R_MTJ(state, I) + R_T(I)).
class OneT1JCell {
 public:
  /// Builds a cell with the calibrated MTJ and a fixed 917-Ohm access
  /// resistance (the paper's Table I values).
  OneT1JCell();

  [[nodiscard]] MtjDevice& mtj() { return mtj_; }
  [[nodiscard]] const MtjDevice& mtj() const { return mtj_; }
  [[nodiscard]] const AccessDeviceModel& access() const { return *access_; }

  /// Stored logical value.
  [[nodiscard]] bool stored_bit() const { return mtj_.stored_bit(); }

  /// Bit-line voltage when the selected cell carries read current `i`
  /// (counts a read access on the MTJ).
  Volt read_bitline_voltage(Ampere i);

  /// Total series resistance seen from the bit line at current `i` for
  /// the stored state.
  [[nodiscard]] Ohm path_resistance(Ampere i) const;

  /// Writes a logical value with a current pulse.  Deterministic when the
  /// amplitude reaches the pulse-width-dependent critical current.
  /// Returns true when the cell holds `bit` afterwards.
  bool write(bool bit, Ampere amplitude, Second width,
             Xoshiro256* rng = nullptr);

  /// Energy dissipated in the cell by a current pulse of the given
  /// amplitude/width with the cell in its current state (I^2 * R * t,
  /// using the state's resistance at that current).
  [[nodiscard]] Joule pulse_energy(Ampere amplitude, Second width) const;

 private:
  MtjDevice mtj_;
  std::unique_ptr<AccessDeviceModel> access_;
};

}  // namespace sttram
