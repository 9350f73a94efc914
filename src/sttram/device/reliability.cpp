#include "sttram/device/reliability.hpp"

#include <cmath>
#include <limits>

#include "sttram/common/error.hpp"

namespace sttram {

MtjParams mtj_at_temperature(const MtjParams& base, double kelvin,
                             const ThermalParams& thermal) {
  require(kelvin > 0.0, "mtj_at_temperature: temperature must be > 0 K");
  MtjParams p = base;
  const double dt = kelvin - thermal.t_ref;
  // TMR loss shrinks the high-state excess (and its excess droop).
  const double tmr_scale =
      std::max(0.0, 1.0 - thermal.tmr_slope_per_kelvin * dt);
  // Weak common drift of the low state.
  const double low_scale =
      std::max(0.1, 1.0 + thermal.r_low_slope_per_kelvin * dt);
  p = base.scaled(low_scale, tmr_scale);
  // Thermal stability Delta = E / kT.
  p.thermal_stability = base.thermal_stability * thermal.t_ref / kelvin;
  return p;
}

RetentionModel::RetentionModel(const MtjParams& params, Second attempt_time)
    : delta_(params.thermal_stability), tau0_(attempt_time) {
  require(params.thermal_stability > 0.0,
          "RetentionModel: thermal stability must be > 0");
  require(attempt_time.value() > 0.0,
          "RetentionModel: attempt time must be > 0");
}

Second RetentionModel::mean_retention_time() const {
  return Second(tau0_.value() * std::exp(delta_));
}

double RetentionModel::flip_probability(Second horizon) const {
  require(horizon.value() >= 0.0,
          "flip_probability: horizon must be >= 0");
  return -std::expm1(-horizon.value() / mean_retention_time().value());
}

double RetentionModel::required_stability(Second horizon, double budget,
                                          Second attempt_time) {
  require(budget > 0.0 && budget < 1.0,
          "required_stability: budget must be in (0, 1)");
  require(horizon.value() > 0.0,
          "required_stability: horizon must be > 0");
  // 1 - exp(-h / (tau0 e^D)) = budget  =>  D = ln(h / (tau0 * -ln(1-b))).
  return std::log(horizon.value() /
                  (attempt_time.value() * -std::log1p(-budget)));
}

DisturbAccumulator::DisturbAccumulator(const SwitchingModel& model,
                                       Ampere read_current,
                                       Second read_dwell)
    : p_pulse_(model.read_disturb_probability(read_current, read_dwell)) {}

double DisturbAccumulator::pulses_to_budget(double budget) const {
  require(budget > 0.0 && budget < 1.0,
          "pulses_to_budget: budget must be in (0, 1)");
  if (p_pulse_ <= 0.0) return std::numeric_limits<double>::infinity();
  if (p_pulse_ >= 1.0) return 1.0;
  return std::log1p(-budget) / std::log1p(-p_pulse_);
}

double accesses_to_disturb_budget(const DisturbAccumulator& acc,
                                  double reads_per_access, double budget) {
  require(reads_per_access > 0.0,
          "accesses_to_disturb_budget: an access must read at least once");
  return acc.pulses_to_budget(budget) / reads_per_access;
}

double write_error_rate(const SwitchingModel& model, Ampere amplitude,
                        Second width) {
  return 1.0 - model.switching_probability(amplitude, width);
}

}  // namespace sttram
