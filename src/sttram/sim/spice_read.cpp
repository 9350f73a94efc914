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

/// On-resistance the access NMOS is sized for at vdd gate drive.
constexpr double kAccessOnOhms = 917.0;

/// Access model matching the simulated circuit: the level-1 NMOS (whose
/// resistance rises with current) in series with the bit-line wire.
class NmosPlusWire final : public AccessDeviceModel {
 public:
  explicit NmosPlusWire(const SpiceCellConfig& cfg)
      : nmos_(LinearRegionNmos::with_on_resistance(
            Ohm(kAccessOnOhms), Volt(cfg.vdd), Volt(cfg.nmos_vth))),
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

/// cfg.beta when set, otherwise `Scheme`'s equal-margin optimum against
/// the circuit's access path.  The paper adjusts the read-current ratio
/// at testing stage to center the margins of the *actual* circuit; this
/// emulates that trim with the NMOS whose resistance shifts with
/// current, plus the bit-line wire.
template <class Scheme>
double tuned_beta(const SpiceCellConfig& cfg) {
  if (cfg.beta > 0.0) return cfg.beta;
  const LinearRiModel model(cfg.mtj);
  const NmosPlusWire access(cfg);
  return Scheme(model, access, cfg.selfref).optimal_beta();
}

/// What a read's tail attaches to in the shared netlist.
struct CellNetlist {
  NodeId bl;
  NodeId c1;
  CurrentSource& drive;
  MtjElement& mtj;
};

/// The netlist both reads share, nodes and elements in this order: the
/// read-current drive `drive_name` into the sense end of the bit line,
/// the lumped bit-line wire and capacitance, the selected MTJ over its
/// access NMOS, the word-line driver, the unselected cells' leakage, and
/// SLT1 sampling the first read onto C1.  A read's own nodes and
/// elements follow.
CellNetlist build_cell_netlist(Circuit& circuit, const SpiceCellConfig& cfg,
                               const char* drive_name,
                               std::unique_ptr<PwlWaveform> drive,
                               std::unique_ptr<PwlWaveform> word_line) {
  require(cfg.unselected_cells > 0,
          "circuit-level read: need unselected cells (unselected_cells > 0)");
  const NodeId bl = circuit.node("BL");
  const NodeId bl_cell = circuit.node("BL_CELL");
  const NodeId mid = circuit.node("CELL_MID");
  const NodeId wl = circuit.node("WL");
  const NodeId c1 = circuit.node("C1_TOP");

  auto& source = circuit.add<CurrentSource>(drive_name, Circuit::ground(),
                                            bl, std::move(drive));

  // Lumped bit-line parasitics between the sense end and the cell.
  circuit.add<Resistor>("Rbl", bl, bl_cell, cfg.r_bitline);
  circuit.add<Capacitor>("Cbl", bl, Circuit::ground(), cfg.c_bitline);

  // Selected 1T1J cell: MTJ from the bit line to the access NMOS.
  const LinearRiModel ri(cfg.mtj);
  auto& mtj = circuit.add<MtjElement>("MTJ", bl_cell, mid, ri, cfg.state);
  Mosfet::Params nmos;
  nmos.vth = cfg.nmos_vth;
  nmos.lambda = 0.02;
  nmos.beta = 1.0 / (kAccessOnOhms * (cfg.vdd - cfg.nmos_vth));
  circuit.add<Mosfet>("Maccess", mid, wl, Circuit::ground(), nmos);

  circuit.add<VoltageSource>("Vwl", wl, Circuit::ground(),
                             std::move(word_line));

  // Unselected-cell leakage, lumped into one resistor.
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
  return CellNetlist{bl, c1, source, mtj};
}

}  // namespace

double circuit_tuned_beta(const SpiceReadConfig& cfg) {
  return tuned_beta<NondestructiveSelfReference>(cfg);
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

SpiceReadNodes build_nondestructive_read_circuit(Circuit& circuit,
                                                 const SpiceReadConfig& cfg) {
  const double beta = circuit_tuned_beta(cfg);
  const double i1 = cfg.selfref.i_max.value() / beta;
  const double i2 = cfg.selfref.i_max.value();

  // Read-current driver: 0 -> I1 during the first read, I2 during the
  // second, off afterwards.  Word line: asserted once, held.
  const CellNetlist cell = build_cell_netlist(
      circuit, cfg, "Iread",
      std::make_unique<PwlWaveform>(
          std::vector<double>{0.0, cfg.t_read1_on, cfg.t_read1_on + 1e-10,
                              cfg.t_read2_on, cfg.t_read2_on + 1e-10,
                              cfg.t_sense + 1e-9, cfg.t_sense + 1.1e-9},
          std::vector<double>{0.0, 0.0, i1, i1, i2, i2, 0.0}),
      std::make_unique<PwlWaveform>(
          std::vector<double>{0.0, cfg.t_wl_on, cfg.t_wl_on + 2e-10},
          std::vector<double>{0.0, 0.0, cfg.vdd}));
  const NodeId div_in = circuit.node("DIV_IN");
  const NodeId bo = circuit.node("V_BO");

  // SLT2 connects the high-impedance divider during the second read.
  circuit.add<TimedSwitch>(
      "SLT2", cell.bl, div_in, /*initially_closed=*/false,
      std::vector<std::pair<double, bool>>{{cfg.t_read2_on, true}},
      cfg.r_switch_on);
  const double r_top = 2.0 * cfg.r_divider * (1.0 - cfg.selfref.alpha);
  const double r_bot = 2.0 * cfg.r_divider * cfg.selfref.alpha;
  circuit.add<Resistor>("Rdiv_top", div_in, bo, r_top);
  circuit.add<Resistor>("Rdiv_bot", bo, Circuit::ground(), r_bot);

  return SpiceReadNodes{cell.bl, cell.c1, bo};
}

SpiceReadResult simulate_nondestructive_read(const SpiceReadConfig& cfg) {
  Circuit circuit;
  const SpiceReadNodes nodes =
      build_nondestructive_read_circuit(circuit, cfg);

  spice::TransientOptions opt;
  opt.t_stop = cfg.t_stop;
  opt.dt = cfg.dt;
  spice::TransientResult waves = run_transient(circuit, opt);
  spice::TransientResult segment;

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

/// Continues `waves`, which ends at opt.t_stop, to `t_stop`: a new
/// segment of `circuit` (whose elements may have changed state), run
/// into `segment` from the last sample of `waves`, whose samples after
/// that one it appends.  The caller keeps `segment` for the whole read:
/// a segment freed on top of the heap is trimmed back to the kernel, and
/// the next one faults its pages in again.
void extend_transient(Circuit& circuit, spice::TransientOptions& opt,
                      double t_stop, spice::TransientResult& waves,
                      spice::TransientResult& segment) {
  const std::span<const double> last = waves.sample(waves.sample_count() - 1);
  const spice::Solution carry{{last.begin(), last.end()}};
  opt.t_start = opt.t_stop;
  opt.t_stop = t_stop;
  segment = run_transient(circuit, opt, &carry);
  for (std::size_t k = 1; k < segment.sample_count(); ++k) {
    waves.append(segment.time(k), segment.sample(k));
  }
}

}  // namespace

DestructiveSpiceResult simulate_destructive_read(
    const DestructiveSpiceConfig& cfg) {
  // Beta designed against the circuit's access path, as the
  // nondestructive read's is; the destructive comparison is C1 vs C2.
  const double beta = tuned_beta<DestructiveSelfReference>(cfg);
  const double i1 = cfg.selfref.i_max.value() / beta;
  const double i2 = cfg.selfref.i_max.value();

  // Read + erase current drive (the write-back part is decided after
  // the sense and installed before the final segment).  Word line: VDD
  // for reads, boosted during the write pulses so the access device can
  // carry the write current.
  Circuit circuit;
  const CellNetlist cell = build_cell_netlist(
      circuit, cfg, "Idrive",
      std::make_unique<PwlWaveform>(
          std::vector<double>{0.0, cfg.t_read1_on, cfg.t_read1_on + 1e-10,
                              cfg.t_read1_off, cfg.t_read1_off + 1e-10,
                              cfg.t_erase_on, cfg.t_erase_on + 2e-10,
                              cfg.t_erase_off, cfg.t_erase_off + 2e-10,
                              cfg.t_read2_on, cfg.t_read2_on + 1e-10,
                              cfg.t_read2_off, cfg.t_read2_off + 1e-10},
          std::vector<double>{0.0, 0.0, i1, i1, 0.0, 0.0, cfg.i_write,
                              cfg.i_write, 0.0, 0.0, i2, i2, 0.0}),
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
  const NodeId c2 = circuit.node("C2_TOP");

  // SLT2 samples the erased cell's second read onto C2.
  circuit.add<TimedSwitch>(
      "SLT2", cell.bl, c2, false,
      std::vector<std::pair<double, bool>>{{cfg.t_read2_on, true},
                                           {cfg.t_read2_off, false}},
      cfg.r_switch_on);
  circuit.add<Capacitor>("C2", c2, Circuit::ground(), cfg.c_storage);

  // Segment 1: precharge + first read, cell in its stored state.
  spice::TransientOptions opt;
  opt.dt = cfg.dt;
  opt.t_start = 0.0;
  opt.t_stop = cfg.t_erase_on;
  spice::TransientResult waves = run_transient(circuit, opt);
  spice::TransientResult segment;

  // Erase: the write pulse flips the cell to the parallel (0) state.
  // Segment 2: erase pulse + second read, up to the sense instant.
  cell.mtj.set_state(MtjState::kParallel);
  extend_transient(circuit, opt, cfg.t_sense, waves, segment);

  DestructiveSpiceResult result;
  result.n_bl = cell.bl;
  result.n_c1 = cell.c1;
  result.n_c2 = c2;
  result.v_c1 = Volt(waves.voltage_at(cell.c1, cfg.t_sense));
  result.v_c2 = Volt(waves.voltage_at(c2, cfg.t_sense));
  result.value = result.v_c1 > result.v_c2;
  result.margin = abs(result.v_c1 - result.v_c2);

  // Segment 3: conditional write-back of the sensed value.
  if (result.value) {
    cell.drive.set_waveform(std::make_unique<PwlWaveform>(
        std::vector<double>{0.0, cfg.t_writeback_on,
                            cfg.t_writeback_on + 2e-10, cfg.t_writeback_off,
                            cfg.t_writeback_off + 2e-10},
        std::vector<double>{0.0, 0.0, cfg.i_write, cfg.i_write, 0.0}));
    cell.mtj.set_state(MtjState::kAntiParallel);
    result.completion_time = Second(cfg.t_writeback_off);
  } else {
    cell.drive.set_waveform(std::make_unique<spice::DcWaveform>(0.0));
    result.completion_time = Second(cfg.t_sense);
  }
  extend_transient(circuit, opt, cfg.t_stop, waves, segment);

  result.final_state = cell.mtj.state();
  result.data_restored = result.final_state == cfg.state;
  result.waves = std::move(waves);
  return result;
}

}  // namespace sttram
