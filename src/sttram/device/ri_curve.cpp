#include "sttram/device/ri_curve.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/device/ri_curve_simd.hpp"

namespace sttram {
namespace {

const DeviceSimdKernels& device_kernels() {
  static const DeviceSimdKernels kW1{&simd_detail::simmons_newton_simd<1>};
  return pick_simd_table(active_simd_isa(), &kW1, device_simd_kernels_w2(),
                         device_simd_kernels_w4(), device_simd_kernels_w8());
}

}  // namespace

double RiModel::tmr(Ampere i) const {
  const Ohm r_p = resistance(MtjState::kParallel, i);
  const Ohm r_ap = resistance(MtjState::kAntiParallel, i);
  return (r_ap - r_p) / r_p;
}

Ohm RiModel::droop(MtjState state, Ampere i_from, Ampere i_to) const {
  return resistance(state, i_from) - resistance(state, i_to);
}

// ---------------------------------------------------------------- Linear

LinearRiModel::LinearRiModel(MtjParams params) : params_(params) {
  require(params_.r_low0.value() > 0.0, "LinearRiModel: r_low0 must be > 0");
  require(params_.r_high0 > params_.r_low0,
          "LinearRiModel: r_high0 must exceed r_low0");
  require(params_.droop_low.value() >= 0.0 &&
              params_.droop_high.value() >= 0.0,
          "LinearRiModel: droops must be >= 0");
  require(params_.i_droop_ref.value() > 0.0,
          "LinearRiModel: i_droop_ref must be > 0");
}

Ohm LinearRiModel::resistance(MtjState state, Ampere i) const {
  // The linear law is calibrated over the measured sweep [0, i_droop_ref]
  // and extrapolated at most 50 % beyond it; past that (write-level
  // currents) the resistance is held constant, keeping v(i) monotone.
  const double frac = std::min(abs(i) / params_.i_droop_ref, 1.5);
  if (state == MtjState::kParallel) {
    return params_.r_low0 - params_.droop_low * frac;
  }
  return params_.r_high0 - params_.droop_high * frac;
}

std::unique_ptr<RiModel> LinearRiModel::clone() const {
  return std::make_unique<LinearRiModel>(*this);
}

// --------------------------------------------------------------- Simmons

SimmonsRiModel::SimmonsRiModel(Params params) : params_(params) {
  require(params_.r_low0.value() > 0.0, "SimmonsRiModel: r_low0 must be > 0");
  require(params_.r_high0 > params_.r_low0,
          "SimmonsRiModel: r_high0 must exceed r_low0");
  require(params_.v_half_low.value() > 0.0 &&
              params_.v_half_high.value() > 0.0,
          "SimmonsRiModel: characteristic voltages must be > 0");
}

Volt SimmonsRiModel::bias_voltage(MtjState state, Ampere i) const {
  const double current = std::fabs(i.value());
  if (current == 0.0) return Volt(0.0);
  const double r0 = (state == MtjState::kParallel ? params_.r_low0
                                                  : params_.r_high0)
                        .value();
  const double vh = (state == MtjState::kParallel ? params_.v_half_low
                                                  : params_.v_half_high)
                        .value();
  const double g0 = 1.0 / r0;
  // Solve g0 * v * (1 + (v/vh)^2) = current for v > 0 (strictly monotone,
  // unique root).  Newton from the linear estimate.
  double v = current * r0;
  for (int iter = 0; iter < 60; ++iter) {
    const double u = v / vh;
    const double f = g0 * v * (1.0 + u * u) - current;
    const double df = g0 * (1.0 + 3.0 * u * u);
    const double step = f / df;
    v -= step;
    if (v <= 0.0) v = 1e-15;
    if (std::fabs(step) < 1e-15 * (1.0 + std::fabs(v))) break;
  }
  return Volt(v);
}

Ohm SimmonsRiModel::resistance(MtjState state, Ampere i) const {
  const double current = std::fabs(i.value());
  if (current == 0.0) {
    return state == MtjState::kParallel ? params_.r_low0 : params_.r_high0;
  }
  const Volt v = bias_voltage(state, i);
  return Ohm(v.value() / current);
}

std::unique_ptr<RiModel> SimmonsRiModel::clone() const {
  return std::make_unique<SimmonsRiModel>(*this);
}

void SimmonsRiModel::bias_voltage_batch(MtjState state, const double* i_amps,
                                        std::size_t n, double* v_out) const {
  const double r0 = (state == MtjState::kParallel ? params_.r_low0
                                                  : params_.r_high0)
                        .value();
  const double vh = (state == MtjState::kParallel ? params_.v_half_low
                                                  : params_.v_half_high)
                        .value();
  device_kernels().simmons_newton(r0, vh, i_amps, n, v_out);
}

SimmonsRiModel SimmonsRiModel::calibrated_to(const MtjParams& calib) {
  Params p;
  p.r_low0 = calib.r_low0;
  p.r_high0 = calib.r_high0;

  // For each state pick v_half so the droop at i_droop_ref matches the
  // linear model's droop there (same endpoints, curved path between).
  const auto fit_vhalf = [&](MtjState state, Ohm r0, Ohm target_droop) {
    if (target_droop.value() <= 0.0) return Volt(1e9);  // effectively flat
    const auto droop_for = [&](double vh) {
      Params trial;
      trial.r_low0 = calib.r_low0;
      trial.r_high0 = calib.r_high0;
      trial.v_half_low = Volt(state == MtjState::kParallel ? vh : 1e9);
      trial.v_half_high = Volt(state == MtjState::kAntiParallel ? vh : 1e9);
      const SimmonsRiModel m(trial);
      return (r0 - m.resistance(state, calib.i_droop_ref)).value() -
             target_droop.value();
    };
    // Bracket: tiny vh -> huge droop; huge vh -> ~zero droop.
    const double vh = brent(droop_for, 1e-3, 1e3, 1e-12, 300);
    return Volt(vh);
  };

  p.v_half_low =
      fit_vhalf(MtjState::kParallel, calib.r_low0, calib.droop_low);
  p.v_half_high =
      fit_vhalf(MtjState::kAntiParallel, calib.r_high0, calib.droop_high);
  return SimmonsRiModel(p);
}

// ----------------------------------------------------------------- Table

TableRiModel::TableRiModel(std::vector<double> currents,
                           std::vector<double> r_low,
                           std::vector<double> r_high)
    : low_(currents, std::move(r_low)),
      high_(std::move(currents), std::move(r_high)) {
  require(low_.x_min() >= 0.0, "TableRiModel: currents must be >= 0");
}

TableRiModel TableRiModel::sampled_from(const RiModel& model, Ampere i_max,
                                        int points) {
  require(points >= 2, "TableRiModel: need at least two sample points");
  require(i_max.value() > 0.0, "TableRiModel: i_max must be > 0");
  std::vector<double> is = linspace(0.0, i_max.value(), points - 1);
  std::vector<double> lo, hi;
  lo.reserve(is.size());
  hi.reserve(is.size());
  for (const double i : is) {
    lo.push_back(model.resistance(MtjState::kParallel, Ampere(i)).value());
    hi.push_back(
        model.resistance(MtjState::kAntiParallel, Ampere(i)).value());
  }
  return TableRiModel(std::move(is), std::move(lo), std::move(hi));
}

Ohm TableRiModel::resistance(MtjState state, Ampere i) const {
  const double current = std::fabs(i.value());
  return Ohm(state == MtjState::kParallel ? low_(current) : high_(current));
}

std::unique_ptr<RiModel> TableRiModel::clone() const {
  return std::make_unique<TableRiModel>(*this);
}

}  // namespace sttram
