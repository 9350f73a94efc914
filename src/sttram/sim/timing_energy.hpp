// Latency / energy / reliability comparison of the schemes with a read
// flow (the paper's Sec. V discussion: the nondestructive scheme removes
// two write pulses and shortens the second read).  execute_scheme_read
// is the one dispatch from a SchemeId to its read operation.
#pragma once

#include <string>
#include <vector>

#include "sttram/sense/read_operation.hpp"
#include "sttram/sense/scheme.hpp"

namespace sttram {

/// One comparison row.
struct SchemeCost {
  std::string scheme;
  Second latency_read0{0.0};  ///< read latency with a stored 0
  Second latency_read1{0.0};  ///< read latency with a stored 1
  Joule energy_read0{0.0};
  Joule energy_read1{0.0};
  std::uint64_t write_pulses_read0 = 0;
  std::uint64_t write_pulses_read1 = 0;

  [[nodiscard]] Second worst_latency() const {
    return max(latency_read0, latency_read1);
  }
  [[nodiscard]] Joule worst_energy() const {
    return max(energy_read0, energy_read1);
  }
};

/// Configuration shared by the comparison.
struct CostComparisonConfig {
  SelfRefConfig selfref{};
  Ampere write_current{750e-6};      ///< 1.5x critical for deterministic writes
  ReadTimingParams timing{};
};

/// Executes scheme `id`'s calibrated read operation once on `cell`,
/// with the supply dropping as `failure` says; a flow that never writes
/// cannot lose the stored value and runs to the end.  Throws
/// InvalidArgument for a scheme without a read flow.
ReadResult execute_scheme_read(SchemeId id, const CostComparisonConfig& config,
                               OneT1JCell& cell,
                               const PowerFailure& failure = {});

/// Scheme `id` read once on a nominal cell storing 0 and once on one
/// storing 1.  Throws InvalidArgument for a scheme without a read flow.
SchemeCost scheme_cost(SchemeId id, const CostComparisonConfig& config);

/// scheme_cost of every scheme with a read flow, in SchemeId order.
std::vector<SchemeCost> compare_scheme_costs(
    const CostComparisonConfig& config);

/// Power-failure experiment: injects a supply drop after every phase of
/// each self-reference read and reports whether the stored value
/// survived (the paper's non-volatility argument for the nondestructive
/// scheme).
struct PowerFailureOutcome {
  std::string scheme;
  std::size_t fail_after_phase = 0;
  std::string phase_name;      ///< last completed phase
  bool stored_bit = false;     ///< value stored before the read
  bool data_survived = false;  ///< cell still holds it after the failure
};
std::vector<PowerFailureOutcome> power_failure_experiment(
    const CostComparisonConfig& config);

}  // namespace sttram
