#include "sttram/sim/throughput.hpp"

#include "sttram/common/error.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

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

Second simulate_bank_latency(const BankPerformance& bank,
                             const WorkloadParams& workload,
                             std::size_t accesses, std::uint64_t seed) {
  require(accesses > 0, "simulate_bank_latency: need at least one access");
  Xoshiro256 rng(seed);
  const double mean_interarrival =
      bank.avg_service.value() / workload.utilization;
  double now = 0.0;          // arrival clock
  double bank_free = 0.0;    // when the server frees up
  double total_latency = 0.0;
  for (std::size_t k = 0; k < accesses; ++k) {
    now += sample_exponential(rng, mean_interarrival);
    const bool is_read = rng.next_double() < workload.read_fraction;
    const double service = is_read ? bank.read_service.value()
                                   : bank.write_service.value();
    const double start = std::max(now, bank_free);
    const double done = start + service;
    total_latency += done - now;
    bank_free = done;
  }
  return Second(total_latency / static_cast<double>(accesses));
}

}  // namespace sttram
