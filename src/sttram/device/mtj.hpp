// A stateful MTJ device instance: R-I characteristic + magnetization
// state + switching dynamics, with read/write accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/mtj_state.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// Sign convention for write currents, matching the paper's Fig. 1/2:
/// positive current (into terminal B, through the free layer first)
/// switches AP -> P (writes 0); negative current switches P -> AP
/// (writes 1).
enum class WritePolarity {
  kToParallel,      ///< positive branch of the I-V sweep, writes 0
  kToAntiParallel,  ///< negative branch, writes 1
};

/// Write current polarity needed to reach `target`.
constexpr WritePolarity polarity_for(MtjState target) {
  return target == MtjState::kParallel ? WritePolarity::kToParallel
                                       : WritePolarity::kToAntiParallel;
}

/// One magnetic tunnel junction.  Move-only: it owns its R-I model.
class MtjDevice {
 public:
  /// Builds a device with the calibrated linear R-I law.
  explicit MtjDevice(MtjParams params = MtjParams::paper_calibrated(),
                     MtjState initial = MtjState::kParallel);

  [[nodiscard]] MtjState state() const { return state_; }
  [[nodiscard]] bool stored_bit() const { return to_bit(state_); }
  [[nodiscard]] const MtjParams& params() const { return params_; }
  [[nodiscard]] const RiModel& ri_model() const { return *model_; }
  [[nodiscard]] const SwitchingModel& switching() const { return switching_; }

  /// Resistance of the *current* state at read current `i`.  Counts as a
  /// read access.
  Ohm read_resistance(Ampere i);

  /// Resistance of an arbitrary state at `i` (no access counted).
  [[nodiscard]] Ohm resistance(MtjState s, Ampere i) const {
    return model_->resistance(s, i);
  }

  /// Applies a write pulse.  Switching is deterministic when the pulse
  /// amplitude reaches the critical current for its width; otherwise the
  /// outcome is drawn from the thermal-activation model when `rng` is
  /// provided, and no switch happens when it is not.
  /// Returns true when the state after the pulse equals the polarity's
  /// target (whether it switched or was already there).
  bool apply_write_pulse(WritePolarity polarity, Ampere amplitude,
                         Second width, Xoshiro256* rng = nullptr);

  /// Forces the magnetization state (test fixture / initial condition).
  void force_state(MtjState s) { state_ = s; }

  /// Lifetime counters (used by the scheme property tests to prove the
  /// nondestructive scheme never writes).
  [[nodiscard]] std::uint64_t read_count() const { return reads_; }
  [[nodiscard]] std::uint64_t write_pulse_count() const { return writes_; }
  [[nodiscard]] std::uint64_t switch_count() const { return switches_; }

 private:
  MtjParams params_;
  std::unique_ptr<RiModel> model_;
  SwitchingModel switching_;
  MtjState state_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace sttram
