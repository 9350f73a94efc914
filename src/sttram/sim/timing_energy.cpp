#include "sttram/sim/timing_energy.hpp"

namespace sttram {

ReadResult execute_scheme_read(SchemeId id, const CostComparisonConfig& config,
                               OneT1JCell& cell, const PowerFailure& failure) {
  // Every read runs at the scheme's point designed on the nominal device.
  const OperatingPoint point = designed_point(
      id, MtjParams::paper_calibrated(), Ohm(917.0), config.selfref);
  switch (id) {
    case SchemeId::kConventional:
      return ConventionalReadOperation(config.selfref.i_max,
                                       Volt(point.v_ref), config.timing)
          .execute(cell);
    case SchemeId::kDestructive:
      return DestructiveReadOperation(config.selfref, point.beta,
                                      config.write_current, config.timing)
          .execute(cell, failure);
    case SchemeId::kNondestructive:
      return NondestructiveReadOperation(config.selfref, point.beta,
                                         config.timing)
          .execute(cell);
    case SchemeId::kReferenceCell:
      break;
  }
  throw_no_read_flow(id);
}

SchemeCost scheme_cost(SchemeId id, const CostComparisonConfig& config) {
  SchemeCost cost;
  cost.scheme = scheme_row(id).label;
  for (const bool bit : {false, true}) {
    OneT1JCell cell;
    cell.mtj().force_state(from_bit(bit));
    const std::uint64_t writes_before = cell.mtj().write_pulse_count();
    const ReadResult r = execute_scheme_read(id, config, cell);
    const std::uint64_t writes = cell.mtj().write_pulse_count() -
                                 writes_before;
    if (bit) {
      cost.latency_read1 = r.latency;
      cost.energy_read1 = r.energy;
      cost.write_pulses_read1 = writes;
    } else {
      cost.latency_read0 = r.latency;
      cost.energy_read0 = r.energy;
      cost.write_pulses_read0 = writes;
    }
  }
  return cost;
}

std::vector<SchemeCost> compare_scheme_costs(
    const CostComparisonConfig& config) {
  std::vector<SchemeCost> out;
  for (const SchemeRow& row : kSchemeTable) {
    if (row.has_read_flow) out.push_back(scheme_cost(row.id, config));
  }
  return out;
}

std::vector<PowerFailureOutcome> power_failure_experiment(
    const CostComparisonConfig& config) {
  std::vector<PowerFailureOutcome> out;
  for (const SchemeRow& row : kSchemeTable) {
    if (!row.has_read_flow || row.externally_referenced) continue;
    // Stored 1 first: it is the value the destructive erase destroys
    // until the write-back restores it.
    for (const bool bit : {true, false}) {
      OneT1JCell probe;
      probe.mtj().force_state(from_bit(bit));
      const ReadResult clean = execute_scheme_read(row.id, config, probe);
      for (std::size_t k = 0; k < clean.phases.size(); ++k) {
        OneT1JCell cell;
        cell.mtj().force_state(from_bit(bit));
        PowerFailure failure;
        failure.enabled = true;
        failure.fail_after_phase = k;
        (void)execute_scheme_read(row.id, config, cell, failure);
        PowerFailureOutcome o;
        o.scheme = row.label;
        o.fail_after_phase = k;
        o.phase_name = clean.phases[k].name;
        o.stored_bit = bit;
        o.data_survived = cell.stored_bit() == bit;
        out.push_back(o);
      }
    }
  }
  return out;
}

}  // namespace sttram
