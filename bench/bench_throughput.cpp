// System-level ablation: what the sensing-scheme latency differences do
// to memory-bank bandwidth, loaded latency, and energy per bit.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/throughput.hpp"

STTRAM_PAPER_SECTION(bench_throughput) {
  heading("System", "bank bandwidth / loaded latency / energy-per-bit");

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
      t.add_row({b.scheme, format(b.read_service), format(b.avg_service),
                 fmt("%.0f", b.peak_bandwidth_mbps),
                 format(b.avg_queue_latency),
                 fmt("%.2f", b.energy_per_bit_pj)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  WorkloadParams wl;
  wl.read_fraction = 1.0;
  const auto banks = analyze_bank_performance(cost, wl);
  const double bw_gain = banks[2].peak_bandwidth_mbps /
                         banks[1].peak_bandwidth_mbps;
  std::printf("Reproduction / extension claims:\n");
  row("system.bandwidth_2x",
      "nondestructive read ~2x destructive bank read bandwidth", bw_gain > 1.5);
  row("system.conv_fastest",
      "conventional referenced sensing is fastest (when it works)",
      banks[0].peak_bandwidth_mbps > banks[2].peak_bandwidth_mbps);
  row("system.destr_energy",
      "destructive scheme pays write energy on every read",
      banks[1].energy_per_bit_pj > 5.0 * banks[2].energy_per_bit_pj);
}
