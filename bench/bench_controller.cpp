// Chip-scale controller bench: channels x ranks x banks under FR-FCFS
// command scheduling — simulated-request throughput of the sharded
// event loop across thread counts (with a bit-identity cross-check),
// scheme comparison at chip scale, and FR-FCFS vs FCFS row-hit impact.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/io/table.hpp"

using namespace sttram;
namespace ctrl = engine::controller;

namespace {

double wall_run(const ctrl::ControllerConfig& cfg, ParallelExecutor* exec,
                ctrl::ControllerReport& out) {
  const auto t0 = std::chrono::steady_clock::now();
  out = ctrl::run_controller_traffic(cfg, exec);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool reports_identical(const ctrl::ControllerReport& a,
                       const ctrl::ControllerReport& b) {
  return a.requests == b.requests && a.row_hits == b.row_hits &&
         a.coalesced_reads == b.coalesced_reads &&
         a.makespan.value() == b.makespan.value() &&
         a.mean_latency.value() == b.mean_latency.value() &&
         a.total_energy.value() == b.total_energy.value();
}

}  // namespace

int main() {
  bench::heading("Controller",
                 "chip-scale channels x ranks x banks, FR-FCFS scheduling");

  // The acceptance configuration: 4 channels x 2 ranks x 8 banks.
  ctrl::ControllerConfig cfg;
  cfg.channels = 4;
  cfg.ranks = 2;
  cfg.banks = 8;
  cfg.rows = 64;
  cfg.requests = 2000000;
  cfg.utilization = 0.7;
  cfg.row_locality = 0.6;
  cfg.seed = 1;

  // Thread sweep with bit-identity check against the serial run.
  std::printf("4 ch x 2 ranks x 8 banks, rho = 0.7, locality 0.6, "
              "%zu requests\n",
              cfg.requests);
  ctrl::ControllerReport serial;
  const double serial_s = wall_run(cfg, nullptr, serial);
  TextTable sweep({"threads", "wall [s]", "Mreq/s", "identical"});
  bool all_identical = true;
  double best_rate = static_cast<double>(cfg.requests) / serial_s;
  double threads8_rate = 0.0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    engine::ThreadPool pool(threads);
    ctrl::ControllerReport r;
    // Best of five: wall time on a shared box is noisy, and the claim
    // is about what the simulator sustains, not the noise floor.
    double wall_s = wall_run(cfg, &pool, r);
    const bool same = reports_identical(serial, r);
    for (int rep = 1; rep < 5; ++rep) {
      ctrl::ControllerReport again;
      wall_s = std::min(wall_s, wall_run(cfg, &pool, again));
    }
    const double rate = static_cast<double>(cfg.requests) / wall_s;
    all_identical = all_identical && same;
    if (rate > best_rate) best_rate = rate;
    if (threads == 8u) threads8_rate = rate;
    char ws[16], mr[16];
    std::snprintf(ws, sizeof(ws), "%.3f", wall_s);
    std::snprintf(mr, sizeof(mr), "%.1f", rate / 1e6);
    sweep.add_row({std::to_string(threads), ws, mr, same ? "yes" : "NO"});
  }
  sweep.add_row({"serial", "", "", "baseline"});
  std::printf("%s\n", sweep.to_string().c_str());

  // Chip-scale scheme comparison (the paper's latency/energy story at
  // the full hierarchy).
  TextTable schemes({"scheme", "mean", "p99", "BW [Mbit/s]", "E/bit [pJ]"});
  ctrl::ControllerReport per_scheme[3];
  const SchemeId kinds[] = {SchemeId::kConventional, SchemeId::kDestructive,
                            SchemeId::kNondestructive};
  for (int s = 0; s < 3; ++s) {
    ctrl::ControllerConfig c = cfg;
    c.scheme = kinds[s];
    c.requests = 400000;
    per_scheme[s] = ctrl::run_controller_traffic(c);
    const ctrl::ControllerReport& r = per_scheme[s];
    char bw[16], eb[16];
    std::snprintf(bw, sizeof(bw), "%.0f", r.total_bandwidth_mbps);
    std::snprintf(eb, sizeof(eb), "%.3f", r.energy_per_bit_pj);
    schemes.add_row({r.scheme, format(r.mean_latency),
                     format(r.p99_latency), bw, eb});
  }
  std::printf("%s\n", schemes.to_string().c_str());

  // FR-FCFS vs FCFS at high locality and near-critical load: row-hit-
  // first only has room to reorder when queues are deep, and coalescing
  // is disabled so same-row runs stay as distinct queue entries the
  // scheduler can actually reorder.
  ctrl::ControllerConfig pol = cfg;
  pol.requests = 400000;
  pol.row_locality = 0.8;
  pol.utilization = 0.95;
  pol.coalescing = false;
  const ctrl::ControllerReport frfcfs = ctrl::run_controller_traffic(pol);
  pol.scheduler = ctrl::SchedulerPolicy::kFcfs;
  const ctrl::ControllerReport fcfs = ctrl::run_controller_traffic(pol);
  std::printf("scheduling (locality 0.8): row-hit rate %s (fcfs) -> %s "
              "(frfcfs), mean latency %s -> %s\n\n",
              format_percent(fcfs.row_hit_rate).c_str(),
              format_percent(frfcfs.row_hit_rate).c_str(),
              format(fcfs.mean_latency).c_str(),
              format(frfcfs.mean_latency).c_str());

  std::printf("Reproduction / extension claims:\n");
  bench::claim("sharded channels bit-identical across 1/2/8 threads",
               all_identical);
  bench::wall_clock_claim("sustains >= 10M simulated requests/s on 8 threads",
                          threads8_rate >= 10e6);
  bench::claim("FR-FCFS lifts the row-hit rate over FCFS",
               frfcfs.row_hit_rate > fcfs.row_hit_rate);
  bench::claim("nondestructive beats destructive chip bandwidth",
               per_scheme[2].total_bandwidth_mbps >
                   per_scheme[1].total_bandwidth_mbps);
  // The bit-level E/bit gap is ~8x (bench_latency_energy); at chip
  // scale writes and row management dilute it, leaving > 4x.
  bench::claim("nondestructive cuts destructive chip E/bit by > 4x",
               per_scheme[1].energy_per_bit_pj >
                   4.0 * per_scheme[2].energy_per_bit_pj);

  return bench::exit_code();
}
