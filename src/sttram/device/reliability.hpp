// Reliability physics of the STT-RAM cell: data retention, read-disturb
// accumulation across repeated self-reference reads, write error rate,
// and temperature dependence of the sensing signal.
//
// These quantify the trade the paper leans on: the nondestructive scheme
// reads the cell *twice* per access (doubling disturb exposure) but
// never writes, so retention-relevant state is never at risk and the
// endurance cost of two write pulses per read disappears.
#pragma once

#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/switching.hpp"

namespace sttram {

/// Temperature scaling of the device parameters.
struct ThermalParams {
  /// Reference temperature of the calibrated parameters [K].
  double t_ref = 300.0;
  /// Relative TMR loss per kelvin above t_ref (MgO junctions lose
  /// roughly 0.1-0.2 %/K); applied to the high-state excess resistance
  /// and its droop.
  double tmr_slope_per_kelvin = 1.5e-3;
  /// Relative low-state resistance change per kelvin (weak).
  double r_low_slope_per_kelvin = 2e-4;
};

/// Returns the device parameters at `kelvin`: TMR (and with it the
/// high-state excess and droop) shrinks with temperature, the thermal
/// stability factor scales as E/kT, and the low-state resistance drifts
/// weakly.
MtjParams mtj_at_temperature(const MtjParams& base, double kelvin,
                             const ThermalParams& thermal = {});

/// Retention metrics derived from the thermal stability factor.
class RetentionModel {
 public:
  explicit RetentionModel(const MtjParams& params,
                          Second attempt_time = Second(1e-9));

  /// Mean time to a thermally activated flip: tau = tau0 * exp(Delta).
  [[nodiscard]] Second mean_retention_time() const;

  /// Probability that an idle bit flips within `horizon`.
  [[nodiscard]] double flip_probability(Second horizon) const;

  /// Thermal stability needed for a per-bit flip probability below
  /// `budget` over `horizon` (Delta = ln(horizon / (tau0 * -ln(1-b)))
  /// solved exactly).
  [[nodiscard]] static double required_stability(Second horizon,
                                                 double budget,
                                                 Second attempt_time =
                                                     Second(1e-9));

 private:
  double delta_;
  Second tau0_;
};

/// Read-disturb accumulation across many accesses.
class DisturbAccumulator {
 public:
  DisturbAccumulator(const SwitchingModel& model, Ampere read_current,
                     Second read_dwell);

  /// Disturb probability of one read pulse.
  [[nodiscard]] double per_pulse() const { return p_pulse_; }

  /// Number of pulses until the accumulated disturb probability
  /// 1 - (1 - p)^N reaches `budget`.
  [[nodiscard]] double pulses_to_budget(double budget) const;

 private:
  double p_pulse_;
};

/// Accesses until the accumulated *read-disturb* probability reaches
/// `budget` when each access reads the cell `reads_per_access` times (a
/// scheme's scheme_read_currents; write pulses switch intentionally and
/// do not count as disturb).
double accesses_to_disturb_budget(const DisturbAccumulator& acc,
                                  double reads_per_access, double budget);

/// Write error rate of one write pulse (1 - switching probability).
double write_error_rate(const SwitchingModel& model, Ampere amplitude,
                        Second width);

}  // namespace sttram
