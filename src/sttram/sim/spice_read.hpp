// Circuit-level (MNA) simulation of the two self-reference reads of one
// 1T1J cell: the nondestructive read of Figs. 5 and 10, with its
// high-impedance voltage divider, and the conventional destructive read
// of Fig. 3.  Both run on one netlist builder for what they share (bit
// line, cell, access NMOS, word line, unselected-cell leakage, C1
// sampling path); each read adds only its own drive, word-line schedule
// and comparator tail.
#pragma once

#include <cstddef>

#include "sttram/device/mtj_params.hpp"
#include "sttram/device/mtj_state.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"

namespace sttram {

/// The device and schedule fields both circuit-level reads share: one
/// 1T1J cell at the far end of a lumped bit line, its access NMOS and
/// word line, the unselected cells' leakage, and the switch SLT1 that
/// samples the first read's bit-line voltage onto C1.
struct SpiceCellConfig {
  MtjParams mtj = MtjParams::paper_calibrated();
  MtjState state = MtjState::kAntiParallel;  ///< stored value under test
  SelfRefConfig selfref{};
  /// 0 = the scheme's equal-margin optimum against the circuit's access
  /// path (level-1 NMOS + bit-line wire): the paper's testing-stage trim.
  double beta = 0.0;
  // Schedule (times in seconds).
  double t_wl_on = 1e-9;          ///< word line asserted
  double t_read1_on = 1e-9;      ///< I1 + SLT1 on
  double t_read1_off = 8e-9;     ///< SLT1 opens (V_BL1 held on C1)
  double dt = 2.5e-11;           ///< transient step
  // Devices.
  double c_storage = 250e-15;    ///< C1 (and the destructive read's C2)
  double c_bitline = 192e-15;    ///< lumped BL capacitance (128 cells)
  double r_bitline = 256.0;      ///< lumped BL wire resistance
  double r_switch_on = 1e3;      ///< SLT1/SLT2 on-resistance
  std::size_t unselected_cells = 127;  ///< must be > 0
  double r_off_per_cell = 50e6;  ///< unselected-cell leakage path
  double vdd = 1.2;
  /// The access NMOS is sized for ~917 Ohm on-resistance at vdd gate
  /// drive.
  double nmos_vth = 0.45;
};

/// Netlist + schedule parameters of the nondestructive read (Fig. 5).
struct SpiceReadConfig : SpiceCellConfig {
  double t_read2_on = 8.5e-9;    ///< I steps to I2, SLT2 closes
  double t_sense = 13.5e-9;      ///< SenEn: comparator decision instant
  double t_stop = 15e-9;         ///< end of simulation
  double r_divider = 10e6;       ///< each half of the divider
};

/// Outcome of the circuit-level read.
struct SpiceReadResult {
  spice::TransientResult waves;
  bool value = false;        ///< comparator decision at t_sense
  Volt v_c1{0.0};            ///< sampled first-read voltage at t_sense
  Volt v_bo{0.0};            ///< divider output at t_sense
  Volt margin{0.0};          ///< |V_C1 - V_BO| at t_sense
  Second settle_read1{0.0};  ///< time for C1 to reach 99 % of its hold value
  Second settle_read2{0.0};  ///< time for V_BO to reach 99 % of final
  Second decision_time{0.0}; ///< t_sense
  // Node ids for waveform inspection.
  spice::NodeId n_bl = spice::kGround;
  spice::NodeId n_c1 = spice::kGround;
  spice::NodeId n_bo = spice::kGround;
};

/// Builds the Fig. 5 netlist into `circuit` and returns the key nodes.
struct SpiceReadNodes {
  spice::NodeId bl;
  spice::NodeId c1;
  spice::NodeId bo;
};
SpiceReadNodes build_nondestructive_read_circuit(spice::Circuit& circuit,
                                                 const SpiceReadConfig& cfg);

/// Runs the transient and evaluates the comparator at t_sense.
SpiceReadResult simulate_nondestructive_read(const SpiceReadConfig& cfg);

/// The read-current ratio the nondestructive circuit-level read will
/// use: cfg.beta when set, otherwise the scheme's trim (SpiceCellConfig::
/// beta).
double circuit_tuned_beta(const SpiceReadConfig& cfg);

/// Analytic sense margins of the nondestructive scheme evaluated with
/// the *circuit's* access path at circuit_tuned_beta(cfg) — the value
/// the MNA simulation should land near (cross-validation).
SenseMargins analytic_margins_for_circuit(const SpiceReadConfig& cfg);

/// Circuit-level simulation of the conventional *destructive*
/// self-reference read (the paper's Fig. 3): read into C1, erase the
/// cell with a write pulse, read the erased cell into C2, compare,
/// write back on demand.  Implemented as segmented transients — the MTJ
/// element's magnetization state changes at the write-pulse boundaries.
/// Its beta trim is the destructive scheme's against the same access
/// path.
struct DestructiveSpiceConfig : SpiceCellConfig {
  double i_write = 750e-6;       ///< erase / write-back pulse amplitude
  // Schedule.
  double t_erase_on = 8.5e-9;    ///< erase pulse (write 0) begins
  double t_erase_off = 12.5e-9;  ///< 4 ns pulse
  double t_read2_on = 13e-9;     ///< I2 + SLT2, sampled onto C2
  double t_read2_off = 19e-9;
  double t_sense = 19.5e-9;      ///< comparator decision
  double t_writeback_on = 20e-9; ///< conditional restore pulse begins
  double t_writeback_off = 24e-9;
  double t_stop = 25e-9;
  /// Boosted word-line level during the erase / write-back pulses — the
  /// access device must carry the ~750 uA write current, far beyond its
  /// read-mode saturation limit.
  double wl_write_boost = 2.2;
};

/// Outcome of the circuit-level destructive read.
struct DestructiveSpiceResult {
  spice::TransientResult waves;  ///< concatenated segments
  bool value = false;            ///< comparator decision (V_C1 > V_C2)
  Volt v_c1{0.0};
  Volt v_c2{0.0};
  Volt margin{0.0};
  Second completion_time{0.0};   ///< end of write-back (or sense if none)
  MtjState final_state = MtjState::kParallel;  ///< cell state at the end
  bool data_restored = false;    ///< final state == original state
  spice::NodeId n_bl = spice::kGround;
  spice::NodeId n_c1 = spice::kGround;
  spice::NodeId n_c2 = spice::kGround;
};

DestructiveSpiceResult simulate_destructive_read(
    const DestructiveSpiceConfig& cfg);

}  // namespace sttram
