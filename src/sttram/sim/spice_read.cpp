#include "sttram/sim/spice_read.hpp"

#include <cmath>
#include <span>

#include "sttram/cell/access_transistor.hpp"
#include "sttram/common/error.hpp"
#include "sttram/spice/elements.hpp"

namespace sttram {

using spice::Circuit;
using spice::CurrentSource;
using spice::Capacitor;
using spice::Mosfet;
using spice::MtjElement;
using spice::NodeId;
using spice::PwlWaveform;
using spice::Resistor;
using spice::TimedSwitch;
using spice::VoltageSource;

namespace {

/// Access model matching the simulated circuit: the level-1 NMOS (whose
/// resistance rises with current) in series with the bit-line wire.
class NmosPlusWire final : public AccessDeviceModel {
 public:
  NmosPlusWire(const SpiceReadConfig& cfg)
      : nmos_(LinearRegionNmos::with_on_resistance(
            Ohm(917.0), Volt(cfg.vdd), Volt(cfg.nmos_vth))),
        wire_(cfg.r_bitline) {}

  [[nodiscard]] Ohm resistance(Ampere i) const override {
    return nmos_.resistance(i) + wire_;
  }
  [[nodiscard]] std::unique_ptr<AccessDeviceModel> clone() const override {
    return std::make_unique<NmosPlusWire>(*this);
  }

 private:
  LinearRegionNmos nmos_;
  Ohm wire_;
};

}  // namespace

double circuit_tuned_beta(const SpiceReadConfig& cfg) {
  if (cfg.beta > 0.0) return cfg.beta;
  // The paper adjusts the read-current ratio at testing stage to center
  // the margins of the *actual* circuit; emulate that by solving the
  // equal-margin condition with the circuit's access path (NMOS whose
  // resistance shifts with current, plus the bit-line wire).
  const LinearRiModel model(cfg.mtj);
  const NmosPlusWire access(cfg);
  const NondestructiveSelfReference scheme(model, access, cfg.selfref);
  return scheme.optimal_beta();
}

SenseMargins analytic_margins_for_circuit(const SpiceReadConfig& cfg) {
  const LinearRiModel model(cfg.mtj);
  const NmosPlusWire access(cfg);
  const NondestructiveSelfReference scheme(model, access, cfg.selfref);
  const double beta = circuit_tuned_beta(cfg);
  SenseMargins m = scheme.margins(beta);
  // First-order sampling correction: C1 charges through the cell path
  // (tau1 = R_path (C_BL + C1)) and its switch (tau2 = R_sw C1) for a
  // finite window, so the held V_C1 undershoots the settled bit-line
  // voltage by eps = exp(-T/tau).  That systematically lowers SM1 and
  // raises SM0 in the simulated circuit.
  const Ampere i1 = scheme.first_read_current(beta);
  const double window = cfg.t_read1_off - cfg.t_read1_on;
  const auto undershoot = [&](MtjState s) {
    const double r_path =
        (model.resistance(s, i1) + access.resistance(i1)).value();
    const double tau = r_path * (cfg.c_bitline + cfg.c_storage) +
                       cfg.r_switch_on * cfg.c_storage;
    const double v1 = scheme.first_read_voltage(s, beta).value();
    return std::exp(-window / tau) * v1;
  };
  m.sm1 -= Volt(undershoot(MtjState::kAntiParallel));
  m.sm0 += Volt(undershoot(MtjState::kParallel));
  return m;
}

namespace {

double resolved_beta(const SpiceReadConfig& cfg) {
  return circuit_tuned_beta(cfg);
}

}  // namespace

SpiceReadNodes build_nondestructive_read_circuit(Circuit& circuit,
                                                 const SpiceReadConfig& cfg) {
  const double beta = resolved_beta(cfg);
  const double i1 = cfg.selfref.i_max.value() / beta;
  const double i2 = cfg.selfref.i_max.value();

  const NodeId bl = circuit.node("BL");
  const NodeId bl_cell = circuit.node("BL_CELL");
  const NodeId mid = circuit.node("CELL_MID");
  const NodeId wl = circuit.node("WL");
  const NodeId c1 = circuit.node("C1_TOP");
  const NodeId div_in = circuit.node("DIV_IN");
  const NodeId bo = circuit.node("V_BO");

  // Read-current driver: 0 -> I1 during the first read, I2 during the
  // second, off afterwards.  Injected into the sense-end of the BL.
  auto wave = std::make_unique<PwlWaveform>(
      std::vector<double>{0.0, cfg.t_read1_on, cfg.t_read1_on + 1e-10,
                          cfg.t_read2_on, cfg.t_read2_on + 1e-10,
                          cfg.t_sense + 1e-9, cfg.t_sense + 1.1e-9},
      std::vector<double>{0.0, 0.0, i1, i1, i2, i2, 0.0});
  circuit.add<CurrentSource>("Iread", Circuit::ground(), bl,
                             std::move(wave));

  // Lumped bit-line parasitics between the sense end and the cell.
  circuit.add<Resistor>("Rbl", bl, bl_cell, cfg.r_bitline);
  circuit.add<Capacitor>("Cbl", bl, Circuit::ground(), cfg.c_bitline);

  // Selected 1T1J cell: MTJ from the bit line to the access NMOS.
  const LinearRiModel ri(cfg.mtj);
  circuit.add<MtjElement>("MTJ", bl_cell, mid, ri, cfg.state);
  Mosfet::Params nmos;
  nmos.vth = cfg.nmos_vth;
  nmos.lambda = 0.02;
  nmos.beta = cfg.nmos_beta > 0.0
                  ? cfg.nmos_beta
                  : 1.0 / (917.0 * (cfg.vdd - cfg.nmos_vth));
  circuit.add<Mosfet>("Maccess", mid, wl, Circuit::ground(), nmos);

  // Word-line driver.
  auto wl_wave = std::make_unique<PwlWaveform>(
      std::vector<double>{0.0, cfg.t_wl_on, cfg.t_wl_on + 2e-10},
      std::vector<double>{0.0, 0.0, cfg.vdd});
  circuit.add<VoltageSource>("Vwl", wl, Circuit::ground(),
                             std::move(wl_wave));

  // Unselected-cell leakage, lumped into one resistor.
  require(cfg.unselected_cells > 0,
          "build_nondestructive_read_circuit: need unselected cells");
  circuit.add<Resistor>(
      "Rleak", bl, Circuit::ground(),
      cfg.r_off_per_cell / static_cast<double>(cfg.unselected_cells));

  // SLT1 samples V_BL1 onto C1 during the first read.
  circuit.add<TimedSwitch>(
      "SLT1", bl, c1, /*initially_closed=*/false,
      std::vector<std::pair<double, bool>>{{cfg.t_read1_on, true},
                                           {cfg.t_read1_off, false}},
      cfg.r_switch_on);
  circuit.add<Capacitor>("C1", c1, Circuit::ground(), cfg.c_storage);

  // SLT2 connects the high-impedance divider during the second read.
  circuit.add<TimedSwitch>(
      "SLT2", bl, div_in, /*initially_closed=*/false,
      std::vector<std::pair<double, bool>>{{cfg.t_read2_on, true}},
      cfg.r_switch_on);
  const double r_top = 2.0 * cfg.r_divider * (1.0 - cfg.selfref.alpha);
  const double r_bot = 2.0 * cfg.r_divider * cfg.selfref.alpha;
  circuit.add<Resistor>("Rdiv_top", div_in, bo, r_top);
  circuit.add<Resistor>("Rdiv_bot", bo, Circuit::ground(), r_bot);

  return SpiceReadNodes{bl, c1, bo};
}

SpiceReadResult simulate_nondestructive_read(const SpiceReadConfig& cfg) {
  Circuit circuit;
  const SpiceReadNodes nodes =
      build_nondestructive_read_circuit(circuit, cfg);

  spice::TransientOptions opt;
  opt.t_stop = cfg.t_stop;
  opt.dt = cfg.dt;
  spice::TransientResult waves = run_transient(circuit, opt);

  SpiceReadResult result;
  result.n_bl = nodes.bl;
  result.n_c1 = nodes.c1;
  result.n_bo = nodes.bo;
  result.v_c1 = Volt(waves.voltage_at(nodes.c1, cfg.t_sense));
  result.v_bo = Volt(waves.voltage_at(nodes.bo, cfg.t_sense));
  result.value = result.v_c1 > result.v_bo;
  result.margin = abs(result.v_c1 - result.v_bo);
  result.decision_time = Second(cfg.t_sense);

  // Settling metrics: when each comparator input reached 99 % of the
  // value it holds at the sense instant.
  const auto settle_time = [&](NodeId n, double window_start) {
    const double target = waves.voltage_at(n, cfg.t_sense);
    if (target == 0.0) return Second(0.0);
    const double level = 0.99 * target;
    const int dir = target > 0.0 ? 1 : -1;
    const double t = waves.crossing_time(n, level, dir);
    return Second(t < 0.0 ? -1.0 : t - window_start);
  };
  result.settle_read1 = settle_time(nodes.c1, cfg.t_read1_on);
  result.settle_read2 = settle_time(nodes.bo, cfg.t_read2_on);
  result.waves = std::move(waves);
  return result;
}

namespace {

/// Appends `segment` to `merged`, skipping the duplicated first sample.
void append_segment(spice::TransientResult& merged,
                    const spice::TransientResult& segment) {
  for (std::size_t k = 1; k < segment.sample_count(); ++k) {
    merged.append(segment.time(k), segment.sample(k));
  }
}

/// The last sample of `waves`, as the start of the next segment.
spice::Solution final_solution(const spice::TransientResult& waves) {
  const std::span<const double> last = waves.sample(waves.sample_count() - 1);
  return spice::Solution{{last.begin(), last.end()}};
}

}  // namespace

DestructiveSpiceResult simulate_destructive_read(
    const DestructiveSpiceConfig& cfg) {
  using spice::Solution;
  using spice::TransientOptions;
  using spice::TransientResult;

  Circuit circuit;
  const NodeId bl = circuit.node("BL");
  const NodeId bl_cell = circuit.node("BL_CELL");
  const NodeId mid = circuit.node("CELL_MID");
  const NodeId wl = circuit.node("WL");
  const NodeId c1 = circuit.node("C1_TOP");
  const NodeId c2 = circuit.node("C2_TOP");

  // Design beta against the circuit's access path (as the nondestructive
  // flow does); the destructive comparison is C1 vs C2.
  double beta = cfg.beta;
  if (beta <= 0.0) {
    const LinearRiModel model(cfg.mtj);
    LinearRegionNmos nmos = LinearRegionNmos::with_on_resistance(
        Ohm(917.0), Volt(cfg.vdd), Volt(cfg.nmos_vth));
    // Effective series access model: NMOS + bit-line wire.
    struct Combined final : AccessDeviceModel {
      LinearRegionNmos nmos;
      double wire;
      Combined(LinearRegionNmos n, double w) : nmos(std::move(n)), wire(w) {}
      Ohm resistance(Ampere i) const override {
        return nmos.resistance(i) + Ohm(wire);
      }
      std::unique_ptr<AccessDeviceModel> clone() const override {
        return std::make_unique<Combined>(*this);
      }
    } combined(nmos, cfg.r_bitline);
    const DestructiveSelfReference scheme(model, combined, cfg.selfref);
    beta = scheme.optimal_beta();
  }
  const double i1 = cfg.selfref.i_max.value() / beta;
  const double i2 = cfg.selfref.i_max.value();

  // Read + erase current source (the write-back part is decided after
  // the sense and installed before the final segment).
  auto& i_src = circuit.add<CurrentSource>(
      "Idrive", Circuit::ground(), bl,
      std::make_unique<PwlWaveform>(
          std::vector<double>{0.0, cfg.t_read1_on, cfg.t_read1_on + 1e-10,
                              cfg.t_read1_off, cfg.t_read1_off + 1e-10,
                              cfg.t_erase_on, cfg.t_erase_on + 2e-10,
                              cfg.t_erase_off, cfg.t_erase_off + 2e-10,
                              cfg.t_read2_on, cfg.t_read2_on + 1e-10,
                              cfg.t_read2_off, cfg.t_read2_off + 1e-10},
          std::vector<double>{0.0, 0.0, i1, i1, 0.0, 0.0, cfg.i_write,
                              cfg.i_write, 0.0, 0.0, i2, i2, 0.0}));

  circuit.add<Resistor>("Rbl", bl, bl_cell, cfg.r_bitline);
  circuit.add<Capacitor>("Cbl", bl, Circuit::ground(), cfg.c_bitline);

  const LinearRiModel ri(cfg.mtj);
  auto& mtj = circuit.add<MtjElement>("MTJ", bl_cell, mid, ri, cfg.state);
  Mosfet::Params nmos_params;
  nmos_params.vth = cfg.nmos_vth;
  nmos_params.lambda = 0.02;
  nmos_params.beta = 1.0 / (917.0 * (cfg.vdd - cfg.nmos_vth));
  circuit.add<Mosfet>("Maccess", mid, wl, Circuit::ground(), nmos_params);
  // Word line: VDD for reads, boosted during the write pulses so the
  // access device can carry the write current.
  circuit.add<VoltageSource>(
      "Vwl", wl, Circuit::ground(),
      std::make_unique<PwlWaveform>(
          std::vector<double>{0.0, cfg.t_wl_on, cfg.t_wl_on + 2e-10,
                              cfg.t_erase_on, cfg.t_erase_on + 1e-10,
                              cfg.t_erase_off + 2e-10,
                              cfg.t_erase_off + 3e-10,
                              cfg.t_writeback_on,
                              cfg.t_writeback_on + 1e-10,
                              cfg.t_writeback_off + 2e-10,
                              cfg.t_writeback_off + 3e-10},
          std::vector<double>{0.0, 0.0, cfg.vdd, cfg.vdd,
                              cfg.wl_write_boost, cfg.wl_write_boost,
                              cfg.vdd, cfg.vdd, cfg.wl_write_boost,
                              cfg.wl_write_boost, cfg.vdd}));
  circuit.add<Resistor>(
      "Rleak", bl, Circuit::ground(),
      cfg.r_off_per_cell / static_cast<double>(cfg.unselected_cells));

  circuit.add<TimedSwitch>(
      "SLT1", bl, c1, false,
      std::vector<std::pair<double, bool>>{{cfg.t_read1_on, true},
                                           {cfg.t_read1_off, false}},
      cfg.r_switch_on);
  circuit.add<Capacitor>("C1", c1, Circuit::ground(), cfg.c_storage);
  circuit.add<TimedSwitch>(
      "SLT2", bl, c2, false,
      std::vector<std::pair<double, bool>>{{cfg.t_read2_on, true},
                                           {cfg.t_read2_off, false}},
      cfg.r_switch_on);
  circuit.add<Capacitor>("C2", c2, Circuit::ground(), cfg.c_storage);

  circuit.finalize();
  TransientOptions opt;
  opt.dt = cfg.dt;

  // Segment 1: precharge + first read, cell in its stored state.
  opt.t_start = 0.0;
  opt.t_stop = cfg.t_erase_on;
  TransientResult waves = run_transient(circuit, opt);

  // Erase: the write pulse flips the cell to the parallel (0) state.
  mtj.set_state(MtjState::kParallel);

  // Segment 2: erase pulse + second read, up to the sense instant.
  opt.t_start = cfg.t_erase_on;
  opt.t_stop = cfg.t_sense;
  const Solution carry = final_solution(waves);
  const TransientResult seg2 = run_transient(circuit, opt, &carry);
  append_segment(waves, seg2);

  DestructiveSpiceResult result;
  result.n_bl = bl;
  result.n_c1 = c1;
  result.n_c2 = c2;
  result.v_c1 = Volt(waves.voltage_at(c1, cfg.t_sense));
  result.v_c2 = Volt(waves.voltage_at(c2, cfg.t_sense));
  result.value = result.v_c1 > result.v_c2;
  result.margin = abs(result.v_c1 - result.v_c2);

  // Segment 3: conditional write-back of the sensed value.
  if (result.value) {
    i_src.set_waveform(std::make_unique<PwlWaveform>(
        std::vector<double>{0.0, cfg.t_writeback_on,
                            cfg.t_writeback_on + 2e-10, cfg.t_writeback_off,
                            cfg.t_writeback_off + 2e-10},
        std::vector<double>{0.0, 0.0, cfg.i_write, cfg.i_write, 0.0}));
    mtj.set_state(MtjState::kAntiParallel);
    result.completion_time = Second(cfg.t_writeback_off);
  } else {
    i_src.set_waveform(std::make_unique<spice::DcWaveform>(0.0));
    result.completion_time = Second(cfg.t_sense);
  }
  opt.t_start = cfg.t_sense;
  opt.t_stop = cfg.t_stop;
  const Solution carry2 = final_solution(waves);
  const TransientResult seg3 = run_transient(circuit, opt, &carry2);
  append_segment(waves, seg3);

  result.final_state = mtj.state();
  result.data_restored = result.final_state == cfg.state;
  result.waves = std::move(waves);
  return result;
}

}  // namespace sttram
