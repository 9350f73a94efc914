// Concrete circuit elements.
#pragma once

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "sttram/device/mtj_state.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/spice/element.hpp"
#include "sttram/spice/waveform.hpp"

namespace sttram::spice {

/// Linear resistor.
class Resistor final : public Element {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;

  [[nodiscard]] NodeId node_a() const { return a_; }
  [[nodiscard]] NodeId node_b() const { return b_; }

 private:
  NodeId a_, b_;
  double g_;  ///< 1 / ohms [S]
};

/// Linear capacitor.  Open during DC; backward-Euler or trapezoidal
/// companion during transient (per StampContext::integrator).
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  void commit_step(const StampContext& ctx) override;

  [[nodiscard]] double capacitance() const { return farads_; }
  /// Branch current at the last committed time point (flows a -> b).
  [[nodiscard]] double history_current() const { return i_hist_; }
  /// Resets the history (call when restarting a transient).
  void reset_history() { i_hist_ = 0.0; }

 private:
  NodeId a_, b_;
  double farads_;
  double i_hist_ = 0.0;
};

/// Independent voltage source with a time-dependent waveform.
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId pos, NodeId neg,
                std::unique_ptr<Waveform> wave);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  [[nodiscard]] int branch_count() const override { return 1; }
  [[nodiscard]] std::vector<double> breakpoints() const override {
    return wave_->breakpoints();
  }

  [[nodiscard]] double value_at(double time) const { return wave_->at(time); }

  /// Replaces the drive waveform (DC sweeps, conditional segments).
  void set_waveform(std::unique_ptr<Waveform> wave);

 private:
  NodeId pos_, neg_;
  std::unique_ptr<Waveform> wave_;
};

/// Independent current source; current `wave(t)` flows from node `from`
/// through the source into node `to` (i.e. it is injected INTO `to`).
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, NodeId from, NodeId to,
                std::unique_ptr<Waveform> wave);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  [[nodiscard]] std::vector<double> breakpoints() const override {
    return wave_->breakpoints();
  }

  [[nodiscard]] double value_at(double time) const { return wave_->at(time); }

  /// Replaces the drive waveform (used by segmented simulations whose
  /// later segments depend on earlier results, e.g. a conditional
  /// write-back pulse).
  void set_waveform(std::unique_ptr<Waveform> wave);

 private:
  NodeId from_, to_;
  std::unique_ptr<Waveform> wave_;
};

/// Ideal switch driven by a time schedule: a resistor that is r_on when
/// closed and r_off when open.  Models the ideal control signals (WL,
/// SLT1, SLT2, SenEn) of the read timing diagrams.
class TimedSwitch final : public Element {
 public:
  /// `events` are (time, closed) pairs in increasing time order;
  /// `initially_closed` applies before the first event.
  TimedSwitch(std::string name, NodeId a, NodeId b, bool initially_closed,
              std::vector<std::pair<double, bool>> events,
              double r_on = 100.0, double r_off = 1e12);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  [[nodiscard]] std::vector<double> breakpoints() const override;

  [[nodiscard]] bool closed_at(double time) const;

 private:
  NodeId a_, b_;
  bool initially_closed_;
  std::vector<std::pair<double, bool>> events_;
  double g_on_, g_off_;  ///< 1 / r_on and 1 / r_off [S]
};

/// Level-1 (Shichman-Hodges) NMOS transistor, body tied to source.
/// Symmetric: drain/source roles swap automatically when vds < 0.
class Mosfet final : public Element {
 public:
  struct Params {
    double beta = 2e-3;   ///< uCox * W/L [A/V^2]
    double vth = 0.45;    ///< threshold voltage [V]
    double lambda = 0.05; ///< channel-length modulation [1/V]
  };

  Mosfet(std::string name, NodeId drain, NodeId gate, NodeId source,
         Params params);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  [[nodiscard]] bool is_nonlinear() const override { return true; }

  [[nodiscard]] const Params& params() const { return params_; }

  /// Drain current and small-signal parameters at a bias point
  /// (exposed for device-level unit tests).
  struct Operating {
    double ids = 0.0;
    double gm = 0.0;
    double gds = 0.0;
  };
  [[nodiscard]] Operating evaluate(double vgs, double vds) const;

 private:
  NodeId d_, g_, s_;
  Params params_;
};

/// Nonlinear MTJ resistor: resistance follows the calibrated linear R-I
/// law of the given magnetization state at the element's own current.
/// The state is fixed for the duration of an analysis (reads never
/// disturb the cell at the currents the schemes use — that is the
/// paper's I_max constraint).
class MtjElement final : public Element {
 public:
  MtjElement(std::string name, NodeId a, NodeId b,
             const LinearRiModel& model, MtjState state);

  void stamp(MnaStamper& mna, const StampContext& ctx) const override;
  [[nodiscard]] bool is_nonlinear() const override { return true; }

  [[nodiscard]] MtjState state() const { return state_; }
  void set_state(MtjState s);

  /// Branch currents at two element voltages, each solving
  /// i * R(|i|) = v; the stamp asks for I(v0) and I(v0 + dv) at once.
  [[nodiscard]] std::array<double, 2> currents_for_voltages(double v0,
                                                            double v1) const;

 private:
  NodeId a_, b_;
  LinearRiModel model_;
  MtjState state_;
  double r_zero_bias_;  ///< model_.ohms(state_, 0) [Ohm]
};

}  // namespace sttram::spice
