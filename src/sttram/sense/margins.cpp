#include "sttram/sense/margins.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/sense/scheme.hpp"

namespace sttram {
namespace {

/// Effective ratio after a relative beta deviation: the current driver
/// realizes I1 = I2 / beta_eff.
double effective_beta(double beta, const SchemeMismatch& mm) {
  return beta * (1.0 + mm.beta_deviation);
}

SenseMargins volts(MarginPair<Volt> m) { return {m.sm0, m.sm1}; }

}  // namespace

// ---------------------------------------------------- SelfReferenceScheme

SelfReferenceScheme::SelfReferenceScheme(const RiModel& model,
                                         const AccessDeviceModel& access,
                                         SelfRefConfig config)
    : config_(config), model_(model.clone()), access_(access.clone()) {
  require(config.i_max.value() > 0.0,
          "SelfReferenceScheme: i_max must be > 0");
  require(config.alpha > 0.0 && config.alpha < 1.0,
          "SelfReferenceScheme: alpha must be in (0, 1)");
}

Ampere SelfReferenceScheme::first_read_current(double beta) const {
  require(beta > 0.0, "first_read_current: beta must be > 0");
  return config_.i_max / beta;
}

Ohm SelfReferenceScheme::path_resistance(MtjState s, Ampere i,
                                         Ohm extra_r) const {
  return model_->resistance(s, i) + access_->resistance(i) + extra_r;
}

Volt SelfReferenceScheme::first_read_voltage(MtjState s, double beta) const {
  const Ampere i1 = first_read_current(beta);
  return i1 * path_resistance(s, i1);
}

double SelfReferenceScheme::optimal_beta(double beta_lo,
                                         double beta_hi) const {
  const auto diff = [&](double beta) {
    const SenseMargins m = margins(beta);
    return (m.sm1 - m.sm0).value();
  };
  const double f_lo = diff(beta_lo);
  const double f_hi = diff(beta_hi);
  if (f_lo * f_hi > 0.0) {
    throw NumericError(
        "optimal_beta: no equal-margin crossing in the given beta range");
  }
  return brent(diff, beta_lo, beta_hi, 1e-12, 300);
}

// ------------------------------------------------ DestructiveSelfReference

DestructiveSelfReference::DestructiveSelfReference(
    const RiModel& model, const AccessDeviceModel& access,
    SelfRefConfig config)
    : SelfReferenceScheme(model, access, config) {}

DestructiveSelfReference::DestructiveSelfReference(const MtjParams& mtj,
                                                   Ohm r_access,
                                                   SelfRefConfig config)
    : DestructiveSelfReference(LinearRiModel(mtj),
                               FixedAccessResistor(r_access), config) {}

Volt DestructiveSelfReference::reference_voltage(
    const SchemeMismatch& mm) const {
  // After the erase step the cell is in the low (parallel) state; the
  // second read develops V_BL2 = I2 (R_L2 + R_T2 + dR).
  const Ampere i2 = second_read_current();
  return i2 * path_resistance(MtjState::kParallel, i2, mm.delta_r_t);
}

SenseMargins DestructiveSelfReference::margins(
    double beta, const SchemeMismatch& mm) const {
  const double beta_eff = effective_beta(beta, mm);
  return volts(destructive_margins(
      first_read_voltage(MtjState::kParallel, beta_eff),
      first_read_voltage(MtjState::kAntiParallel, beta_eff),
      reference_voltage(mm)));
}

double DestructiveSelfReference::paper_beta() const {
  const Ampere zero(0.0);
  const Ampere i2 = second_read_current();
  const double r_h0 =
      ri_model().resistance(MtjState::kAntiParallel, zero).value();
  const double r_l0 = ri_model().resistance(MtjState::kParallel, zero).value();
  const double d_h = r_h0 -
      ri_model().resistance(MtjState::kAntiParallel, i2).value();
  const double d_l =
      r_l0 - ri_model().resistance(MtjState::kParallel, i2).value();
  const double r_t = access().resistance(i2).value();
  return 1.0 + 2.0 * (d_h + d_l) / (r_h0 + r_l0 + 2.0 * r_t);
}

Window DestructiveSelfReference::paper_delta_r_window(double beta) const {
  const Ampere i1 = first_read_current(beta);
  const double r_l1 = ri_model().resistance(MtjState::kParallel, i1).value();
  const double r_t1 = access().resistance(i1).value();
  const double bound = (beta - 1.0) * (r_l1 + r_t1);
  Window w;
  w.lo = -bound;
  w.hi = bound;
  w.valid = bound > 0.0;
  return w;
}

// --------------------------------------------- NondestructiveSelfReference

NondestructiveSelfReference::NondestructiveSelfReference(
    const RiModel& model, const AccessDeviceModel& access,
    SelfRefConfig config)
    : SelfReferenceScheme(model, access, config) {}

NondestructiveSelfReference::NondestructiveSelfReference(
    const MtjParams& mtj, Ohm r_access, SelfRefConfig config)
    : NondestructiveSelfReference(LinearRiModel(mtj),
                                  FixedAccessResistor(r_access), config) {}

Volt NondestructiveSelfReference::second_read_voltage(
    MtjState s, const SchemeMismatch& mm) const {
  const Ampere i2 = second_read_current();
  return i2 * path_resistance(s, i2, mm.delta_r_t);
}

double NondestructiveSelfReference::effective_alpha(
    const SchemeMismatch& mm) const {
  return config_.alpha * (1.0 + mm.alpha_deviation);
}

Volt NondestructiveSelfReference::divider_voltage(
    MtjState s, const SchemeMismatch& mm) const {
  return effective_alpha(mm) * second_read_voltage(s, mm);
}

SenseMargins NondestructiveSelfReference::margins(
    double beta, const SchemeMismatch& mm) const {
  const double beta_eff = effective_beta(beta, mm);
  return volts(nondestructive_margins(
      first_read_voltage(MtjState::kParallel, beta_eff),
      first_read_voltage(MtjState::kAntiParallel, beta_eff),
      second_read_voltage(MtjState::kParallel, mm),
      second_read_voltage(MtjState::kAntiParallel, mm),
      effective_alpha(mm)));
}

double NondestructiveSelfReference::paper_beta() const {
  const Ampere zero(0.0);
  const Ampere i2 = second_read_current();
  const double r_h0 =
      ri_model().resistance(MtjState::kAntiParallel, zero).value();
  const double r_l0 = ri_model().resistance(MtjState::kParallel, zero).value();
  const double d_h =
      r_h0 - ri_model().resistance(MtjState::kAntiParallel, i2).value();
  const double d_l =
      r_l0 - ri_model().resistance(MtjState::kParallel, i2).value();
  const double r_t = access().resistance(i2).value();
  const double s = r_h0 + r_l0 + 2.0 * r_t;
  // alpha (S - dH - dL) beta^2 - S beta + (dH + dL) = 0, larger root.
  const QuadraticRoots roots =
      solve_quadratic(config_.alpha * (s - d_h - d_l), -s, d_h + d_l);
  require(roots.count >= 1, "paper_beta: equal-margin quadratic has no root");
  return roots.hi;
}

Window NondestructiveSelfReference::paper_delta_r_window(double beta) const {
  const Ampere i1 = first_read_current(beta);
  const double r_l1 = ri_model().resistance(MtjState::kParallel, i1).value();
  const double r_t1 = access().resistance(i1).value();
  const double ab = config_.alpha * beta;
  Window w;
  if (ab <= 1.0) return w;  // scheme inoperable: divider never crosses
  const double bound = (ab - 1.0) * (r_l1 + r_t1) / ab;
  w.lo = -bound;
  w.hi = bound;
  w.valid = true;
  return w;
}

Window NondestructiveSelfReference::alpha_deviation_window(
    double beta) const {
  // Margins are linear in the alpha deviation d:
  //   SM1(d) = SM1(0) - d * alpha * V_BL2(AP)
  //   SM0(d) = SM0(0) + d * alpha * V_BL2(P)
  const SenseMargins m0 = margins(beta);
  const Volt v_div_ap = divider_voltage(MtjState::kAntiParallel, {});
  const Volt v_div_p = divider_voltage(MtjState::kParallel, {});
  Window w;
  if (v_div_ap.value() <= 0.0 || v_div_p.value() <= 0.0) return w;
  w.hi = m0.sm1 / v_div_ap;
  w.lo = -(m0.sm0 / v_div_p);
  w.valid = w.hi > w.lo && m0.positive();
  return w;
}

// --------------------------------------------------- ReferenceCellSensing

ReferenceCellSensing::ReferenceCellSensing(const RiModel& data,
                                           const AccessDeviceModel& access,
                                           const RiModel& ref_p,
                                           const RiModel& ref_ap,
                                           Ampere i_read)
    : data_(data.clone()),
      access_(access.clone()),
      ref_p_(ref_p.clone()),
      ref_ap_(ref_ap.clone()),
      i_read_(i_read) {
  require(i_read.value() > 0.0,
          "ReferenceCellSensing: read current must be > 0");
}

ReferenceCellSensing::ReferenceCellSensing(const MtjParams& data,
                                           const MtjParams& reference,
                                           Ohm r_access, Ampere i_read)
    : ReferenceCellSensing(LinearRiModel(data),
                           FixedAccessResistor(r_access),
                           LinearRiModel(reference),
                           LinearRiModel(reference), i_read) {}

ReferenceCellSensing::~ReferenceCellSensing() = default;

Volt ReferenceCellSensing::bitline_voltage(const RiModel& model,
                                           MtjState s) const {
  return i_read_ * (model.resistance(s, i_read_) +
                    access_->resistance(i_read_));
}

SenseMargins ReferenceCellSensing::margins() const {
  return volts(reference_cell_margins(
      bitline_voltage(*data_, MtjState::kParallel),
      bitline_voltage(*data_, MtjState::kAntiParallel),
      bitline_voltage(*ref_p_, MtjState::kParallel),
      bitline_voltage(*ref_ap_, MtjState::kAntiParallel)));
}

// ----------------------------------------------------- ConventionalSensing

ConventionalSensing::ConventionalSensing(const RiModel& model,
                                         const AccessDeviceModel& access,
                                         Ampere i_read)
    : model_(model.clone()), access_(access.clone()), i_read_(i_read) {
  require(i_read.value() > 0.0,
          "ConventionalSensing: read current must be > 0");
}

ConventionalSensing::ConventionalSensing(const MtjParams& mtj, Ohm r_access,
                                         Ampere i_read)
    : ConventionalSensing(LinearRiModel(mtj), FixedAccessResistor(r_access),
                          i_read) {}

ConventionalSensing::~ConventionalSensing() = default;

Volt ConventionalSensing::bitline_voltage(MtjState s) const {
  const Ohm r = model_->resistance(s, i_read_) + access_->resistance(i_read_);
  return i_read_ * r;
}

Volt ConventionalSensing::midpoint_reference() const {
  return reference_midpoint(bitline_voltage(MtjState::kParallel),
                            bitline_voltage(MtjState::kAntiParallel));
}

SenseMargins ConventionalSensing::margins(Volt v_ref) const {
  return volts(conventional_margins(bitline_voltage(MtjState::kParallel),
                                    bitline_voltage(MtjState::kAntiParallel),
                                    v_ref));
}

}  // namespace sttram
