// System-level ablation: what the sensing-scheme latency differences do
// to memory-bank bandwidth, loaded latency, and energy per bit.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/throughput.hpp"

using namespace sttram;

int main() {
  bench::heading("System", "bank bandwidth / loaded latency / energy-per-bit");

  const CostComparisonConfig cost;
  for (const double read_fraction : {1.0, 0.7, 0.3}) {
    WorkloadParams wl;
    wl.read_fraction = read_fraction;
    const auto banks = analyze_bank_performance(cost, wl);
    std::printf("workload: %.0f %% reads, %zu-bit words, rho = %.1f\n",
                read_fraction * 100.0, wl.word_bits, wl.utilization);
    TextTable t({"scheme", "read svc", "avg svc", "BW [Mbit/s]",
                 "loaded latency", "E/bit [pJ]"});
    for (const auto& b : banks) {
      char bw[16], eb[16];
      std::snprintf(bw, sizeof(bw), "%.0f", b.peak_bandwidth_mbps);
      std::snprintf(eb, sizeof(eb), "%.2f", b.energy_per_bit_pj);
      t.add_row({b.scheme, format(b.read_service), format(b.avg_service),
                 bw, format(b.avg_queue_latency), eb});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // Discrete-event cross-check of the analytic M/D/1 estimate.
  WorkloadParams wl;
  wl.read_fraction = 1.0;
  const auto banks = analyze_bank_performance(cost, wl);
  const BankPerformance& nondes = banks[2];
  const Second sim = simulate_bank_latency(nondes, wl, 200000, 7);
  std::printf("discrete-event check (nondestructive, 100%% reads): "
              "analytic %s vs simulated %s\n\n",
              format(nondes.avg_queue_latency).c_str(),
              format(sim).c_str());

  const double bw_gain = banks[2].peak_bandwidth_mbps /
                         banks[1].peak_bandwidth_mbps;
  std::printf("Reproduction / extension claims:\n");
  bench::claim("nondestructive read ~2x destructive bank read bandwidth",
               bw_gain > 1.5);
  bench::claim("conventional referenced sensing is fastest (when it works)",
               banks[0].peak_bandwidth_mbps >
                   banks[2].peak_bandwidth_mbps);
  bench::claim("M/D/1 estimate within 15 % of discrete-event simulation",
               sim.value() < nondes.avg_queue_latency.value() * 1.15 &&
                   sim.value() > nondes.avg_queue_latency.value() * 0.85);
  bench::claim("destructive scheme pays write energy on every read",
               banks[1].energy_per_bit_pj > 5.0 * banks[2].energy_per_bit_pj);
  return bench::exit_code();
}
