#include "sttram/spice/elements.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"

namespace sttram::spice {

// -------------------------------------------------------------- Resistor

Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Element(std::move(name)), a_(a), b_(b), g_(1.0 / ohms) {
  require(ohms > 0.0, "Resistor: resistance must be > 0");
}

void Resistor::stamp(MnaStamper& mna, const StampContext&) const {
  mna.conductance(a_, b_, g_);
}

// ------------------------------------------------------------- Capacitor

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Element(std::move(name)), a_(a), b_(b), farads_(farads) {
  require(farads > 0.0, "Capacitor: capacitance must be > 0");
}

void Capacitor::stamp(MnaStamper& mna, const StampContext& ctx) const {
  if (!ctx.transient || ctx.dt <= 0.0) return;  // open during DC
  const double v_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
  double g = 0.0;
  double i_src = 0.0;  // history current injected into node a
  if (ctx.integrator == Integrator::kTrapezoidal) {
    // Trapezoidal companion: i_n = (2C/h)(v_n - v_{n-1}) - i_{n-1}.
    g = 2.0 * farads_ / ctx.dt;
    i_src = g * v_prev + i_hist_;
  } else {
    // Backward Euler: i_n = (C/h)(v_n - v_{n-1}).
    g = farads_ / ctx.dt;
    i_src = g * v_prev;
  }
  mna.conductance(a_, b_, g);
  mna.current_into(a_, i_src);
  mna.current_into(b_, -i_src);
}

void Capacitor::commit_step(const StampContext& ctx) {
  if (!ctx.transient || ctx.dt <= 0.0) return;
  const double v = ctx.v(a_) - ctx.v(b_);
  const double v_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
  if (ctx.integrator == Integrator::kTrapezoidal) {
    i_hist_ = (2.0 * farads_ / ctx.dt) * (v - v_prev) - i_hist_;
  } else {
    i_hist_ = (farads_ / ctx.dt) * (v - v_prev);
  }
}

// --------------------------------------------------------- VoltageSource

VoltageSource::VoltageSource(std::string name, NodeId pos, NodeId neg,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), pos_(pos), neg_(neg), wave_(std::move(wave)) {
  require(wave_ != nullptr, "VoltageSource: waveform required");
}

void VoltageSource::set_waveform(std::unique_ptr<Waveform> wave) {
  require(wave != nullptr, "VoltageSource::set_waveform: waveform required");
  wave_ = std::move(wave);
}

void VoltageSource::stamp(MnaStamper& mna, const StampContext& ctx) const {
  mna.voltage_source(branch_base(), pos_, neg_, wave_->at(ctx.time));
}

// --------------------------------------------------------- CurrentSource

CurrentSource::CurrentSource(std::string name, NodeId from, NodeId to,
                             std::unique_ptr<Waveform> wave)
    : Element(std::move(name)), from_(from), to_(to), wave_(std::move(wave)) {
  require(wave_ != nullptr, "CurrentSource: waveform required");
}

void CurrentSource::set_waveform(std::unique_ptr<Waveform> wave) {
  require(wave != nullptr, "CurrentSource::set_waveform: waveform required");
  wave_ = std::move(wave);
}

void CurrentSource::stamp(MnaStamper& mna, const StampContext& ctx) const {
  const double i = wave_->at(ctx.time);
  mna.current_into(to_, i);
  mna.current_into(from_, -i);
}

// ----------------------------------------------------------- TimedSwitch

TimedSwitch::TimedSwitch(std::string name, NodeId a, NodeId b,
                         bool initially_closed,
                         std::vector<std::pair<double, bool>> events,
                         double r_on, double r_off)
    : Element(std::move(name)),
      a_(a),
      b_(b),
      initially_closed_(initially_closed),
      events_(std::move(events)),
      g_on_(1.0 / r_on),
      g_off_(1.0 / r_off) {
  require(r_on > 0.0 && r_off > r_on,
          "TimedSwitch: need 0 < r_on < r_off");
  for (std::size_t i = 1; i < events_.size(); ++i) {
    require(events_[i].first > events_[i - 1].first,
            "TimedSwitch: events must be in increasing time order");
  }
}

bool TimedSwitch::closed_at(double time) const {
  bool state = initially_closed_;
  for (const auto& [t, closed] : events_) {
    if (time >= t) {
      state = closed;
    } else {
      break;
    }
  }
  return state;
}

std::vector<double> TimedSwitch::breakpoints() const {
  std::vector<double> out;
  out.reserve(events_.size());
  for (const auto& [t, closed] : events_) {
    (void)closed;
    out.push_back(t);
  }
  return out;
}

void TimedSwitch::stamp(MnaStamper& mna, const StampContext& ctx) const {
  mna.conductance(a_, b_, closed_at(ctx.time) ? g_on_ : g_off_);
}

// ---------------------------------------------------------------- Mosfet

Mosfet::Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
               Params params)
    : Element(std::move(name)), d_(drain), g_(gate), s_(source),
      params_(params) {
  require(params.beta > 0.0, "Mosfet: beta must be > 0");
  require(params.lambda >= 0.0, "Mosfet: lambda must be >= 0");
}

Mosfet::Operating Mosfet::evaluate(double vgs, double vds) const {
  Operating op;
  const double vov = vgs - params_.vth;
  if (vov <= 0.0) {
    // Cutoff: tiny leakage conductance keeps Newton well-conditioned.
    constexpr double kGleak = 1e-12;
    op.ids = kGleak * vds;
    op.gds = kGleak;
    op.gm = 0.0;
    return op;
  }
  if (vds < vov) {
    // Triode.
    op.ids = params_.beta * (vov * vds - 0.5 * vds * vds) *
             (1.0 + params_.lambda * vds);
    // Derivatives ignore the small lambda*vds cross term's curvature.
    op.gm = params_.beta * vds * (1.0 + params_.lambda * vds);
    op.gds = params_.beta * ((vov - vds) * (1.0 + params_.lambda * vds) +
                             (vov * vds - 0.5 * vds * vds) * params_.lambda);
  } else {
    // Saturation.
    op.ids = 0.5 * params_.beta * vov * vov * (1.0 + params_.lambda * vds);
    op.gm = params_.beta * vov * (1.0 + params_.lambda * vds);
    op.gds = 0.5 * params_.beta * vov * vov * params_.lambda;
    op.gds = std::max(op.gds, 1e-12);
  }
  return op;
}

void Mosfet::stamp(MnaStamper& mna, const StampContext& ctx) const {
  double vd = ctx.v(d_);
  double vg = ctx.v(g_);
  double vs = ctx.v(s_);
  NodeId d = d_, s = s_;
  bool swapped = false;
  if (vd < vs) {  // symmetric device: swap roles
    std::swap(vd, vs);
    std::swap(d, s);
    swapped = true;
  }
  (void)swapped;
  const double vgs = vg - vs;
  const double vds = vd - vs;
  const Operating op = evaluate(vgs, vds);
  // Linearized drain current: ids ~= Ieq + gm*vgs + gds*vds, flowing d->s.
  const double ieq = op.ids - op.gm * vgs - op.gds * vds;
  mna.conductance(d, s, op.gds);
  mna.vccs(d, s, g_, s, op.gm);
  // ieq leaves node d and enters node s.
  mna.current_into(d, -ieq);
  mna.current_into(s, ieq);
}

// ------------------------------------------------------------ MtjElement

MtjElement::MtjElement(std::string name, NodeId a, NodeId b,
                       const LinearRiModel& model, MtjState state)
    : Element(std::move(name)), a_(a), b_(b), model_(model), state_(state),
      r_zero_bias_(model_.ohms(state, 0.0)) {}

void MtjElement::set_state(MtjState s) {
  state_ = s;
  r_zero_bias_ = model_.ohms(s, 0.0);
}

std::array<double, 2> MtjElement::currents_for_voltages(double v0,
                                                        double v1) const {
  // Lane k solves i * R(i) = |v_k| for i >= 0 by damped Newton; v(i) is
  // strictly increasing for all physical R-I models (droop < R).  The
  // lanes share no value: each runs the one-voltage iteration from the
  // same start, with the same stopping tests, and freezes once it stops,
  // so its result does not depend on the other lane.  Interleaving them
  // lets the two dependency chains overlap.
  const std::array<double, 2> v = {v0, v1};
  std::array<double, 2> v_mag{};
  std::array<double, 2> i{};
  std::array<bool, 2> live{};
  for (int k = 0; k < 2; ++k) {
    v_mag[k] = std::fabs(v[k]);
    live[k] = v_mag[k] != 0.0;
    if (live[k]) i[k] = v_mag[k] / r_zero_bias_;
  }
  for (int iter = 0; iter < 80 && (live[0] || live[1]); ++iter) {
    for (int k = 0; k < 2; ++k) {
      if (!live[k]) continue;
      const double r = model_.ohms(state_, i[k]);
      const double f = i[k] * r - v_mag[k];
      // dv/di = R + i * dR/di, via a small relative finite difference.
      const double h = std::max(1e-12, 1e-6 * i[k]);
      const double r2 = model_.ohms(state_, i[k] + h);
      const double dvdi = r + i[k] * (r2 - r) / h;
      if (dvdi <= 0.0) {  // beyond model validity; stop refining
        live[k] = false;
        continue;
      }
      const double step = f / dvdi;
      i[k] -= step;
      if (i[k] < 0.0) i[k] = 0.0;
      if (std::fabs(step) < 1e-15 * (1.0 + i[k])) live[k] = false;
    }
  }
  return {v0 >= 0.0 ? i[0] : -i[0], v1 >= 0.0 ? i[1] : -i[1]};
}

void MtjElement::stamp(MnaStamper& mna, const StampContext& ctx) const {
  const double v0 = ctx.v(a_) - ctx.v(b_);
  // Small-signal conductance at the iterate via finite difference.
  const double dv = std::max(1e-9, 1e-6 * std::fabs(v0));
  const auto [i0, i1] = currents_for_voltages(v0, v0 + dv);
  double g = (i1 - i0) / dv;
  if (!(g > 0.0) || !std::isfinite(g)) {
    g = 1.0 / r_zero_bias_;
  }
  const double ieq = i0 - g * v0;  // current leaving a at zero excursion
  mna.conductance(a_, b_, g);
  mna.current_into(a_, -ieq);
  mna.current_into(b_, ieq);
}

}  // namespace sttram::spice
