// Traffic-engine bench: the sensing schemes under a loaded multi-bank
// memory — discrete-event latency percentiles, sustained bandwidth and
// energy per bit, cross-checked against the analytic M/D/1 model and
// compared across scheduling policies.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/throughput.hpp"

using namespace sttram;
using engine::SchedulingPolicy;
using engine::TrafficConfig;
using engine::TrafficReport;

int main() {
  bench::heading("Traffic", "discrete-event bank traffic by sensing scheme");

  const CostComparisonConfig cost;
  const SchemeId schemes[] = {SchemeId::kConventional,
                              SchemeId::kDestructive,
                              SchemeId::kNondestructive};

  std::printf("open loop: 4 banks, rho = 0.6, 70 %% reads, 100k requests\n");
  TextTable t({"scheme", "p50", "p99", "BW [Mbit/s]", "util", "E/bit [pJ]"});
  TrafficReport reports[3];
  for (int s = 0; s < 3; ++s) {
    TrafficConfig cfg;
    cfg.scheme = schemes[s];
    cfg.cost = cost;
    cfg.banks = 4;
    cfg.requests = 100000;
    reports[s] = engine::run_traffic(cfg);
    const TrafficReport& r = reports[s];
    char bw[16], eb[16];
    std::snprintf(bw, sizeof(bw), "%.0f", r.sustained_bandwidth_mbps);
    std::snprintf(eb, sizeof(eb), "%.2f", r.energy_per_bit_pj);
    t.add_row({r.scheme, format(r.p50_latency), format(r.p99_latency), bw,
               format_percent(r.avg_bank_utilization), eb});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Closed loop saturates the banks: peak deliverable bandwidth.
  std::printf("closed loop: 2 banks, 8 clients, 10 ns think time\n");
  TextTable sat({"scheme", "mean latency", "BW [Mbit/s]", "util"});
  TrafficReport saturated[3];
  for (int s = 0; s < 3; ++s) {
    TrafficConfig cfg;
    cfg.scheme = schemes[s];
    cfg.cost = cost;
    cfg.banks = 2;
    cfg.requests = 60000;
    cfg.workload = engine::WorkloadKind::kClosedLoop;
    cfg.clients = 8;
    cfg.think_time = Second(10e-9);
    saturated[s] = engine::run_traffic(cfg);
    const TrafficReport& r = saturated[s];
    char bw[16];
    std::snprintf(bw, sizeof(bw), "%.0f", r.sustained_bandwidth_mbps);
    sat.add_row({r.scheme, format(r.mean_latency), bw,
                 format_percent(r.avg_bank_utilization)});
  }
  std::printf("%s\n", sat.to_string().c_str());

  // FCFS vs read-priority on a single loaded bank.
  TrafficConfig pol;
  pol.banks = 1;
  pol.requests = 80000;
  pol.read_fraction = 0.5;
  pol.utilization = 0.85;
  pol.policy = SchedulingPolicy::kFcfs;
  const TrafficReport fcfs = engine::run_traffic(pol);
  pol.policy = SchedulingPolicy::kReadPriority;
  const TrafficReport prio = engine::run_traffic(pol);
  std::printf("scheduling (1 bank, rho = 0.85, 50 %% reads): mean read "
              "latency %s (fcfs) -> %s (read-priority)\n\n",
              format(fcfs.mean_read_latency).c_str(),
              format(prio.mean_read_latency).c_str());

  // M/D/1 cross-check at 100 % reads on one bank.
  WorkloadParams wl;
  wl.read_fraction = 1.0;
  const auto analytic = analyze_bank_performance(cost, wl);
  TrafficConfig md1;
  md1.scheme = SchemeId::kNondestructive;
  md1.cost = cost;
  md1.banks = 1;
  md1.requests = 150000;
  md1.read_fraction = 1.0;
  const TrafficReport des = engine::run_traffic(md1);
  bench::compare("M/D/1 loaded latency, nondestructive [ns]",
                 analytic[2].avg_queue_latency.value() * 1e9,
                 des.mean_latency.value() * 1e9, "ns");

  std::printf("\nReproduction / extension claims:\n");
  bench::claim("nondestructive sustains > 1.5x destructive bandwidth",
               saturated[2].sustained_bandwidth_mbps >
                   1.5 * saturated[1].sustained_bandwidth_mbps);
  bench::claim("nondestructive cuts destructive p99 tail by > 40 %",
               reports[2].p99_latency.value() <
                   0.6 * reports[1].p99_latency.value());
  bench::claim("read-priority cuts loaded read latency",
               prio.mean_read_latency.value() <
                   fcfs.mean_read_latency.value());
  bench::claim("DES mean latency within 5 % of M/D/1",
               des.mean_latency.value() >
                       0.95 * analytic[2].avg_queue_latency.value() &&
                   des.mean_latency.value() <
                       1.05 * analytic[2].avg_queue_latency.value());
  bench::claim("destructive pays write energy on every read (E/bit)",
               reports[1].energy_per_bit_pj >
                   5.0 * reports[2].energy_per_bit_pj);

  return bench::exit_code();
}
