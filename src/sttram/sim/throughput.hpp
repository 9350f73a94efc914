// Memory-bank throughput model: what the per-read latency/energy
// differences of the sensing schemes mean at the system level.
//
// A single STT-RAM bank services an access stream; each access occupies
// the bank for the scheme's read service time (or the write time).  The
// model reports sustained bandwidth, M/D/1 queueing latency under a
// Poisson load, and energy per bit — the numbers an architect would use
// to pick a sensing scheme.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sttram/common/units.hpp"
#include "sttram/sense/read_operation.hpp"
#include "sttram/sim/timing_energy.hpp"

namespace sttram {

/// Workload description.
struct WorkloadParams {
  double read_fraction = 0.7;      ///< fraction of accesses that are reads
  std::size_t word_bits = 32;      ///< bits transferred per access
  /// Offered load as a fraction of the bank's service capacity
  /// (utilization rho for the queueing estimate).
  double utilization = 0.6;
};

/// Bank-level figures of merit for one sensing scheme.
struct BankPerformance {
  std::string scheme;
  Second read_service{0.0};     ///< worst-case read occupancy
  Second write_service{0.0};    ///< write occupancy (scheme-independent)
  Second avg_service{0.0};      ///< workload-weighted service time
  double peak_bandwidth_mbps = 0.0;  ///< word_bits / avg_service
  Second avg_queue_latency{0.0};     ///< M/D/1 wait + service at rho
  Joule energy_per_access{0.0};
  double energy_per_bit_pj = 0.0;
};

/// Deterministic write service time: a write pulse plus driver overhead
/// and precharge (shared by all sensing schemes).
Second write_service_time(const ReadTimingParams& timing);

/// Energy of one write access: one write pulse through a nominal cell.
Joule write_access_energy(const CostComparisonConfig& cost_config);

/// Computes bank performance for the three schemes under a workload.
/// Service times and energies come from the executable read operations
/// (compare_scheme_costs); the write path is common to all schemes.
std::vector<BankPerformance> analyze_bank_performance(
    const CostComparisonConfig& cost_config, const WorkloadParams& workload);

}  // namespace sttram
