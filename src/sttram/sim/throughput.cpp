#include "sttram/sim/throughput.hpp"

#include "sttram/common/error.hpp"

namespace sttram {

Second write_service_time(const ReadTimingParams& timing) {
  return timing.t_precharge + timing.t_write_pulse +
         timing.t_write_overhead;
}

Joule write_access_energy(const CostComparisonConfig& cost_config) {
  OneT1JCell probe;
  return probe.pulse_energy(cost_config.write_current,
                            cost_config.timing.t_write_pulse);
}

std::vector<BankPerformance> analyze_bank_performance(
    const CostComparisonConfig& cost_config,
    const WorkloadParams& workload) {
  require(workload.read_fraction >= 0.0 && workload.read_fraction <= 1.0,
          "analyze_bank_performance: read_fraction must be in [0, 1]");
  require(workload.utilization > 0.0 && workload.utilization < 1.0,
          "analyze_bank_performance: utilization must be in (0, 1)");
  require(workload.word_bits > 0,
          "analyze_bank_performance: word_bits must be > 0");

  const auto costs = compare_scheme_costs(cost_config);
  const Second t_write = write_service_time(cost_config.timing);
  const Joule e_write = write_access_energy(cost_config);

  std::vector<BankPerformance> out;
  out.reserve(costs.size());
  for (const auto& c : costs) {
    BankPerformance b;
    b.scheme = c.scheme;
    b.read_service = c.worst_latency();
    b.write_service = t_write;
    const double f = workload.read_fraction;
    b.avg_service = f * b.read_service + (1.0 - f) * b.write_service;
    b.peak_bandwidth_mbps = static_cast<double>(workload.word_bits) /
                            b.avg_service.value() / 1e6;
    // M/D/1 queueing: W = rho * s / (2 (1 - rho)); latency = W + s.
    const double rho = workload.utilization;
    const Second wait = b.avg_service * (rho / (2.0 * (1.0 - rho)));
    b.avg_queue_latency = wait + b.avg_service;
    b.energy_per_access =
        f * c.worst_energy() + (1.0 - f) * e_write;
    b.energy_per_bit_pj = b.energy_per_access.value() * 1e12 /
                          static_cast<double>(workload.word_bits);
    out.push_back(b);
  }
  return out;
}

}  // namespace sttram
