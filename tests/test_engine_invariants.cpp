// Conservation checks on every traffic and controller report: requests
// in equal reads + writes out, row-buffer outcomes account for every
// host access, energy is the sum of per-command energies, and the fault
// counters nest and charge exactly their recovery cost.  Each engine
// runs with no hook, an ECC hook and a no-ECC hook, at 1 and 4 threads.
//
// (Little's law would need the time-averaged occupancy, which no report
// carries; deriving it from the same latency sum would test nothing.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sttram/common/parallel.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/fault/traffic_faults.hpp"

using namespace sttram;
using namespace sttram::engine;
namespace ctrl = sttram::engine::controller;

namespace {

constexpr double kRel = 1e-9;

void expect_rel(double want, double got, const char* what) {
  EXPECT_LE(std::fabs(got - want), kRel * std::fabs(want))
      << what << ": want " << want << ", got " << got;
}

/// The three hooks every run is tried with: none, SECDED + 3 attempts,
/// and bare 32-bit words.  BER 1e-2 gives ~1 retry per 50 ECC reads.
struct Hooks {
  fault::TrafficFaultConfig ecc_config;
  fault::TrafficFaultConfig bare_config;
  fault::TrafficFaultModel ecc;
  fault::TrafficFaultModel bare;

  static fault::TrafficFaultConfig make(bool ecc) {
    fault::TrafficFaultConfig c;
    c.raw_ber = 1e-2;
    c.ecc = ecc;
    c.max_attempts = 3;
    c.word_bits = 32;
    c.retry_latency = Second(25e-9);
    c.retry_energy = Joule(0.4e-12);
    c.seed = 99;
    return c;
  }
  Hooks()
      : ecc_config(make(true)),
        bare_config(make(false)),
        ecc(ecc_config),
        bare(bare_config) {}

  [[nodiscard]] std::vector<const ReadFaultModel*> all() const {
    return {nullptr, &ecc, &bare};
  }
  [[nodiscard]] const fault::TrafficFaultConfig* config_of(
      const ReadFaultModel* hook) const {
    if (hook == &ecc) return &ecc_config;
    if (hook == &bare) return &bare_config;
    return nullptr;
  }
};

/// The fault counters nest, retries need ECC, and the extra latency and
/// energy are exactly the per-attempt charges.
void expect_fault_invariants(const TrafficFaultStats& f, bool enabled,
                             std::size_t host_reads,
                             const fault::TrafficFaultConfig* config) {
  if (!enabled) {
    EXPECT_EQ(f.faulty_reads, 0u);
    EXPECT_EQ(f.retries, 0u);
    EXPECT_EQ(f.raw_bit_errors, 0u);
    EXPECT_EQ(f.extra_latency.value(), 0.0);
    EXPECT_EQ(f.extra_energy.value(), 0.0);
    return;
  }
  ASSERT_NE(config, nullptr);
  EXPECT_GT(f.faulty_reads, 0u);
  EXPECT_LE(f.corrected_words + f.uncorrectable_words + f.silent_corruptions,
            f.faulty_reads);
  EXPECT_LE(f.faulty_reads, host_reads);
  EXPECT_GE(f.raw_bit_errors, f.faulty_reads);
  if (!config->ecc) {
    EXPECT_EQ(f.retries, 0u);
    EXPECT_EQ(f.corrected_words + f.uncorrectable_words, 0u);
    EXPECT_EQ(f.silent_corruptions, f.faulty_reads);
    EXPECT_EQ(f.extra_latency.value(), 0.0);
    EXPECT_EQ(f.extra_energy.value(), 0.0);
    return;
  }
  EXPECT_GT(f.retries, 0u);
  EXPECT_EQ(f.silent_corruptions, 0u);
  const double attempts = static_cast<double>(host_reads + f.retries);
  const double retries = static_cast<double>(f.retries);
  expect_rel(attempts * config->ecc_latency.value() +
                 retries * config->retry_latency.value(),
             f.extra_latency.value(), "fault extra latency");
  expect_rel(attempts * config->ecc_energy.value() +
                 retries * config->retry_energy.value(),
             f.extra_energy.value(), "fault extra energy");
}

std::vector<TrafficConfig> traffic_configs() {
  std::vector<TrafficConfig> out;
  for (const WorkloadKind kind : {WorkloadKind::kPoisson,
                                  WorkloadKind::kClosedLoop,
                                  WorkloadKind::kTrace}) {
    TrafficConfig c;
    c.workload = kind;
    c.requests = 6000;
    c.banks = 4;
    c.read_fraction = 0.6;
    c.seed = 31;
    c.clients = 6;
    if (kind == WorkloadKind::kTrace) {
      PoissonWorkloadConfig gen;
      gen.requests = 5000;
      gen.mean_interarrival = Second(4e-9);
      gen.read_fraction = 0.6;
      gen.banks = c.banks;
      gen.seed = 8;
      c.trace = generate_poisson_workload(gen);
    }
    out.push_back(c);
  }
  return out;
}

void expect_traffic_invariants(const TrafficConfig& c, const TrafficReport& r,
                               const fault::TrafficFaultConfig* fault_config) {
  const std::size_t offered =
      c.workload == WorkloadKind::kTrace ? c.trace.size() : c.requests;
  EXPECT_EQ(r.requests, offered);
  EXPECT_EQ(r.reads + r.writes, r.requests);
  EXPECT_GT(r.reads, 0u);
  EXPECT_GT(r.writes, 0u);
  EXPECT_EQ(r.faults_enabled, c.faults != nullptr);
  const BankTiming t = scheme_bank_timing(c.scheme, c.cost);
  expect_rel(static_cast<double>(r.reads) * t.read_energy.value() +
                 static_cast<double>(r.writes) * t.write_energy.value() +
                 r.faults.extra_energy.value(),
             r.total_energy.value(), "traffic energy");
  expect_fault_invariants(r.faults, r.faults_enabled, r.reads, fault_config);
}

void expect_controller_invariants(const ctrl::ControllerConfig& c,
                                  const ctrl::ControllerReport& r,
                                  const fault::TrafficFaultConfig* fault) {
  ASSERT_EQ(r.channel.size(), c.channels);
  std::size_t requests = 0, reads = 0, writes = 0, coalesced = 0;
  std::size_t hits = 0, misses = 0, conflicts = 0;
  for (std::size_t ch = 0; ch < c.channels; ++ch) {
    SCOPED_TRACE(ch);
    const ctrl::ChannelReport& s = r.channel[ch];
    EXPECT_EQ(s.requests, chunk_range(c.requests, c.channels, ch).size());
    EXPECT_EQ(s.reads + s.writes, s.requests);
    EXPECT_EQ(s.row_hits + s.row_misses + s.row_conflicts,
              s.reads - s.coalesced_reads + s.writes);
    requests += s.requests;
    reads += s.reads;
    writes += s.writes;
    coalesced += s.coalesced_reads;
    hits += s.row_hits;
    misses += s.row_misses;
    conflicts += s.row_conflicts;
  }
  EXPECT_EQ(requests, c.requests);
  EXPECT_EQ(r.requests, c.requests);
  EXPECT_EQ(r.reads + r.writes, r.requests);
  EXPECT_EQ(r.reads, reads);
  EXPECT_EQ(r.writes, writes);
  EXPECT_EQ(r.coalesced_reads, coalesced);
  EXPECT_GT(coalesced, 0u);
  EXPECT_EQ(r.row_hits, hits);
  EXPECT_EQ(r.row_misses, misses);
  EXPECT_EQ(r.row_conflicts, conflicts);
  const std::size_t host_reads = r.reads - r.coalesced_reads;
  EXPECT_EQ(r.row_hits + r.row_misses + r.row_conflicts,
            host_reads + r.writes);
  const ctrl::CommandTiming& t = r.timing;
  expect_rel(static_cast<double>(r.row_misses) * t.e_act.value() +
                 static_cast<double>(r.row_conflicts) *
                     (t.e_act.value() + t.e_pre.value()) +
                 static_cast<double>(host_reads) * t.e_read.value() +
                 static_cast<double>(r.writes) * t.e_write.value() +
                 r.faults.extra_energy.value(),
             r.total_energy.value(), "controller energy");
  EXPECT_EQ(r.faults_enabled, c.faults != nullptr);
  expect_fault_invariants(r.faults, r.faults_enabled, host_reads, fault);
}

}  // namespace

TEST(EngineInvariants, TrafficReportsConserveRequestsEnergyAndFaults) {
  // Every (workload, hook) run, once serially and once with the nine
  // runs spread over 4 threads sharing the two hooks.
  const Hooks hooks;
  std::vector<TrafficConfig> runs;
  for (const TrafficConfig& base : traffic_configs()) {
    for (const ReadFaultModel* hook : hooks.all()) {
      TrafficConfig c = base;
      c.faults = hook;
      runs.push_back(c);
    }
  }
  std::vector<TrafficReport> serial(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    serial[i] = run_traffic(runs[i]);
    expect_traffic_invariants(runs[i], serial[i],
                              hooks.config_of(runs[i].faults));
  }
  std::vector<TrafficReport> threaded(runs.size());
  ThreadPool pool(4);
  pool.for_chunks(runs.size(), [&](std::size_t, std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) threaded[i] = run_traffic(runs[i]);
  });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_traffic_invariants(runs[i], threaded[i],
                              hooks.config_of(runs[i].faults));
    EXPECT_EQ(serial[i].makespan.value(), threaded[i].makespan.value());
    EXPECT_EQ(serial[i].total_energy.value(),
              threaded[i].total_energy.value());
    EXPECT_EQ(serial[i].faults.raw_bit_errors,
              threaded[i].faults.raw_bit_errors);
  }
}

TEST(EngineInvariants, ControllerReportsConserveRequestsRowsEnergyAndFaults) {
  const Hooks hooks;
  ThreadPool one(1);
  ThreadPool four(4);
  for (const ctrl::SchedulerPolicy policy :
       {ctrl::SchedulerPolicy::kFcfs, ctrl::SchedulerPolicy::kFrFcfs}) {
    for (const ReadFaultModel* hook : hooks.all()) {
      ctrl::ControllerConfig c;
      c.channels = 4;
      c.ranks = 2;
      c.banks = 4;
      c.rows = 16;
      c.scheduler = policy;
      c.coalescing = true;
      c.requests = 20003;  // shards of unequal size, ending mid-block
      c.read_fraction = 0.6;
      c.utilization = 0.8;
      c.seed = 41;
      c.faults = hook;
      SCOPED_TRACE(testing::Message() << ctrl::to_string(policy) << " hook "
                                      << (hook == nullptr ? "none"
                                          : hook == &hooks.ecc ? "ecc"
                                                                : "bare"));
      const ctrl::ControllerReport r1 = ctrl::run_controller_traffic(c, &one);
      const ctrl::ControllerReport r4 =
          ctrl::run_controller_traffic(c, &four);
      expect_controller_invariants(c, r1, hooks.config_of(hook));
      expect_controller_invariants(c, r4, hooks.config_of(hook));
      EXPECT_EQ(r1.total_energy.value(), r4.total_energy.value());
      EXPECT_EQ(r1.makespan.value(), r4.makespan.value());
      EXPECT_EQ(r1.faults.retries, r4.faults.retries);
    }
  }
}
