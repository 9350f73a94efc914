#include "sttram/sense/read_operation.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram {
namespace {

/// Settling time of a read phase: the bit line (with optional extra
/// sampling capacitance) charged through the selected cell's path
/// resistance, plus the sampling capacitor charging through its switch.
Second read_settle_time(const ReadTimingParams& timing, Ohm path_resistance,
                        bool samples_onto_capacitor) {
  BitlineParams bl = timing.bitline;
  bl.extra_sense_capacitance =
      samples_onto_capacitor ? timing.storage_cap : Farad(0.0);
  const Bitline line(bl);
  Second settle = line.settling_time(path_resistance,
                                     timing.settle_tolerance);
  if (samples_onto_capacitor) {
    // The sampling cap also charges through the switch on-resistance.
    const Second tau_cap = Second(timing.switch_on_resistance.value() *
                                  timing.storage_cap.value());
    const Second cap_settle =
        tau_cap * std::log(1.0 / timing.settle_tolerance);
    settle = max(settle, cap_settle);
  }
  return settle;
}

/// Appends a phase and accumulates latency/energy onto the result.
void add_phase(ReadResult& result, const std::string& name, Second duration,
               Joule energy) {
  ReadPhase p;
  p.name = name;
  p.start = result.latency;
  p.duration = duration;
  p.energy = energy;
  result.phases.push_back(p);
  result.latency += duration;
  result.energy += energy;
  // Per-phase telemetry: simulated latency / energy distributions keyed
  // by phase name (the Fig. 9 phases).  Off-path cost is one flag load.
  if (obs::metrics_enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("read.phases").increment();
    // Phase labels are free-form ("read1(I1,SLT1)"); normalize them into
    // the registry's metric-name alphabet.  Energies go in pJ: a phase's
    // 0.2-0.4 pJ in joules would sit below the histogram's 2^-40 floor.
    const std::string phase = obs::normalize_metric_name(name);
    registry.histogram("read.phase_latency_s." + phase)
        .record(duration.value());
    registry.histogram("read.phase_energy_pj." + phase)
        .record(energy.value() * 1e12);
  }
}

/// Energy of holding current `i` through resistance `r` for `t`.
Joule conduction_energy(Ampere i, Ohm r, Second t) { return i * i * r * t; }

bool aborted(const PowerFailure& failure, std::size_t completed_phases) {
  return failure.enabled && completed_phases > failure.fail_after_phase;
}

}  // namespace

// ------------------------------------------- NondestructiveReadOperation

NondestructiveReadOperation::NondestructiveReadOperation(
    SelfRefConfig config, double beta, ReadTimingParams timing,
    SenseAmpParams sense_amp)
    : config_(config), beta_(beta), timing_(timing), amp_(sense_amp) {
  require(beta > 1.0, "NondestructiveReadOperation: beta must exceed 1");
}

ReadResult NondestructiveReadOperation::execute(OneT1JCell& cell) const {
  STTRAM_OBS_COUNT("read.ops.nondestructive");
  STTRAM_OBS_SCOPE("read.nondestructive");
  ReadResult result;
  const bool stored = cell.stored_bit();
  const Ampere i1 = config_.i_max / beta_;
  const Ampere i2 = config_.i_max;

  add_phase(result, "precharge", timing_.t_precharge, Joule(0.0));

  // First read: I1 through the cell, V_BL1 sampled onto C1 via SLT1.
  const Second t_read1 = read_settle_time(timing_, cell.path_resistance(i1),
                                          /*samples_onto_capacitor=*/true);
  const Volt v_bl1 = cell.read_bitline_voltage(i1);
  add_phase(result, "read1(I1,SLT1)", t_read1,
            conduction_energy(i1, cell.path_resistance(i1), t_read1));

  // Second read: I2 through the cell, V_BL2 scaled by the high-impedance
  // divider (no extra capacitance on the bit line -> faster settle, the
  // paper's Sec. V argument).
  const Second t_read2 = read_settle_time(timing_, cell.path_resistance(i2),
                                          /*samples_onto_capacitor=*/false);
  const Volt v_bl2 = cell.read_bitline_voltage(i2);
  const Volt v_bo = config_.alpha * v_bl2;
  add_phase(result, "read2(I2,SLT2)", t_read2,
            conduction_energy(i2, cell.path_resistance(i2), t_read2));

  // Sense + latch.
  SenseAmp amp = amp_;
  result.value = amp.latch(v_bl1, v_bo);
  result.reliable = amp.reliable(v_bl1, v_bo);
  result.margin = result.value ? (v_bl1 - v_bo) : (v_bo - v_bl1);
  add_phase(result, "sense+latch(SenEn)", timing_.t_sense, Joule(0.0));

  result.correct = result.value == stored;
  result.data_was_overwritten = false;
  result.data_lost = cell.stored_bit() != stored;
  return result;
}

// ---------------------------------------------- DestructiveReadOperation

DestructiveReadOperation::DestructiveReadOperation(SelfRefConfig config,
                                                   double beta,
                                                   Ampere write_current,
                                                   ReadTimingParams timing,
                                                   SenseAmpParams sense_amp)
    : config_(config),
      beta_(beta),
      write_current_(write_current),
      timing_(timing),
      amp_(sense_amp) {
  require(beta > 1.0, "DestructiveReadOperation: beta must exceed 1");
  require(write_current.value() > 0.0,
          "DestructiveReadOperation: write current must be > 0");
}

ReadResult DestructiveReadOperation::execute(
    OneT1JCell& cell, const PowerFailure& failure) const {
  STTRAM_OBS_COUNT("read.ops.destructive");
  STTRAM_OBS_SCOPE("read.destructive");
  ReadResult result;
  const bool stored = cell.stored_bit();
  const Ampere i1 = config_.i_max / beta_;
  const Ampere i2 = config_.i_max;
  const Second t_write = timing_.t_write_pulse + timing_.t_write_overhead;

  // Phase 0: precharge.
  add_phase(result, "precharge", timing_.t_precharge, Joule(0.0));
  if (aborted(failure, 1)) {
    result.data_lost = cell.stored_bit() != stored;
    return result;
  }

  // Phase 1: first read, sampled onto C1.
  const Second t_read1 = read_settle_time(timing_, cell.path_resistance(i1),
                                          /*samples_onto_capacitor=*/true);
  const Volt v_bl1 = cell.read_bitline_voltage(i1);
  add_phase(result, "read1(I1,SLT1)", t_read1,
            conduction_energy(i1, cell.path_resistance(i1), t_read1));
  if (aborted(failure, 2)) {
    result.data_lost = cell.stored_bit() != stored;
    return result;
  }

  // Phase 2: erase — write 0 into the cell, destroying the stored value.
  const Joule erase_energy = cell.pulse_energy(write_current_,
                                               timing_.t_write_pulse);
  cell.write(false, write_current_, timing_.t_write_pulse);
  result.data_was_overwritten = stored;  // a stored 1 is physically gone
  add_phase(result, "erase(write 0)", t_write, erase_energy);
  if (aborted(failure, 3)) {
    result.data_lost = cell.stored_bit() != stored;
    return result;
  }

  // Phase 3: second read of the erased cell, sampled onto C2 (which sits
  // on the bit line and slows the settle relative to the divider).
  const Second t_read2 = read_settle_time(timing_, cell.path_resistance(i2),
                                          /*samples_onto_capacitor=*/true);
  const Volt v_bl2 = cell.read_bitline_voltage(i2);
  add_phase(result, "read2(I2,SLT2)", t_read2,
            conduction_energy(i2, cell.path_resistance(i2), t_read2));
  if (aborted(failure, 4)) {
    result.data_lost = cell.stored_bit() != stored;
    return result;
  }

  // Phase 4: sense.
  SenseAmp amp = amp_;
  result.value = amp.latch(v_bl1, v_bl2);
  result.reliable = amp.reliable(v_bl1, v_bl2);
  result.margin = result.value ? (v_bl1 - v_bl2) : (v_bl2 - v_bl1);
  add_phase(result, "sense+latch(SenEn)", timing_.t_sense, Joule(0.0));
  if (aborted(failure, 5)) {
    result.data_lost = cell.stored_bit() != stored;
    return result;
  }

  // Phase 5: write back the sensed value (a sensed 0 is already in the
  // cell after the erase; only a sensed 1 needs the restore pulse).
  if (result.value) {
    const Joule wb_energy = cell.pulse_energy(write_current_,
                                              timing_.t_write_pulse);
    cell.write(true, write_current_, timing_.t_write_pulse);
    add_phase(result, "write-back", t_write, wb_energy);
  }

  result.correct = result.value == stored;
  result.data_lost = cell.stored_bit() != stored;
  return result;
}

// --------------------------------------------- ConventionalReadOperation

ConventionalReadOperation::ConventionalReadOperation(Ampere i_read,
                                                     Volt v_ref,
                                                     ReadTimingParams timing,
                                                     SenseAmpParams sense_amp)
    : i_read_(i_read), v_ref_(v_ref), timing_(timing), amp_(sense_amp) {
  require(i_read.value() > 0.0,
          "ConventionalReadOperation: read current must be > 0");
}

ReadResult ConventionalReadOperation::execute(OneT1JCell& cell) const {
  STTRAM_OBS_COUNT("read.ops.conventional");
  STTRAM_OBS_SCOPE("read.conventional");
  ReadResult result;
  const bool stored = cell.stored_bit();

  add_phase(result, "precharge", timing_.t_precharge, Joule(0.0));

  const Second t_read =
      read_settle_time(timing_, cell.path_resistance(i_read_),
                       /*samples_onto_capacitor=*/false);
  const Volt v_bl = cell.read_bitline_voltage(i_read_);
  add_phase(result, "read", t_read,
            conduction_energy(i_read_, cell.path_resistance(i_read_),
                              t_read));

  SenseAmp amp = amp_;
  result.value = amp.latch(v_bl, v_ref_);
  result.reliable = amp.reliable(v_bl, v_ref_);
  result.margin = result.value ? (v_bl - v_ref_) : (v_ref_ - v_bl);
  add_phase(result, "sense+latch", timing_.t_sense, Joule(0.0));

  result.correct = result.value == stored;
  result.data_lost = false;
  return result;
}

}  // namespace sttram
