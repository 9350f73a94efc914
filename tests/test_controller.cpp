// Chip-scale memory controller (engine/controller): command timing,
// per-channel FR-FCFS scheduling, coalescing, and the sharded-channel
// determinism contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/engine/thread_pool.hpp"

namespace sttram::engine::controller {
namespace {

// ----------------------------------------------------- command sequences

TEST(CommandSequence, NondestructiveHasTwoReadsAndNoWrites) {
  const auto seq = read_command_sequence(SchemeId::kNondestructive,
                                         CostComparisonConfig{});
  ASSERT_GE(seq.size(), 4u);
  EXPECT_EQ(seq.front().kind, CommandKind::kActivate);
  EXPECT_EQ(seq.back().kind, CommandKind::kPrecharge);
  std::size_t reads = 0, writes = 0;
  for (const Command& c : seq) {
    if (c.kind == CommandKind::kRead) ++reads;
    if (c.kind == CommandKind::kWrite) ++writes;
  }
  EXPECT_GE(reads, 2u);  // the two-phase self-reference sensing flow
  EXPECT_EQ(writes, 0u);  // nondestructive: no erase, no write-back
}

TEST(CommandSequence, DestructiveEmbedsEraseAndRestoreWrites) {
  const auto seq = read_command_sequence(SchemeId::kDestructive,
                                         CostComparisonConfig{});
  std::size_t writes = 0;
  for (const Command& c : seq) {
    if (c.kind == CommandKind::kWrite) ++writes;
  }
  EXPECT_EQ(writes, 2u);  // erase(write 0) + write-back
}

TEST(CommandSequence, PhasesTileTheLatencyContiguously) {
  for (const SchemeId scheme :
       {SchemeId::kConventional, SchemeId::kDestructive,
        SchemeId::kNondestructive}) {
    const auto seq = read_command_sequence(scheme, CostComparisonConfig{});
    double cursor = 0.0;
    // All but the trailing PRE abut back-to-back.
    for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
      EXPECT_NEAR(seq[i].start.value(), cursor, 1e-15);
      cursor += seq[i].duration.value();
    }
    EXPECT_NEAR(seq.back().start.value(), cursor, 1e-15);
  }
}

TEST(CommandSequence, RendersOneRowPerCommand) {
  const auto seq = read_command_sequence(SchemeId::kNondestructive,
                                         CostComparisonConfig{});
  const std::string diagram = render_command_sequence(seq);
  std::size_t rows = 0;
  for (const char ch : diagram) {
    if (ch == '\n') ++rows;
  }
  EXPECT_EQ(rows, seq.size() + 1);  // commands + total footer
  EXPECT_NE(diagram.find("ACT"), std::string::npos);
  EXPECT_NE(diagram.find("PRE"), std::string::npos);
}

// -------------------------------------------------------- command timing

TEST(CommandTimingTest, RowHitCostsExactlyTheBankSimService) {
  const CostComparisonConfig cost;
  for (const SchemeId scheme :
       {SchemeId::kConventional, SchemeId::kDestructive,
        SchemeId::kNondestructive}) {
    const CommandTiming t = scheme_command_timing(scheme, cost);
    const BankTiming bank = scheme_bank_timing(scheme, cost);
    EXPECT_EQ(t.occupancy(true, true, true).value(),
              bank.read_service.value());
    EXPECT_EQ(t.occupancy(false, true, true).value(),
              bank.write_service.value());
    // Miss adds ACT; conflict adds PRE + ACT on top of that.
    EXPECT_EQ(t.occupancy(true, false, false).value(),
              bank.read_service.value() + t.t_rcd.value());
    EXPECT_EQ(t.occupancy(true, false, true).value(),
              bank.read_service.value() + t.t_rcd.value() + t.t_rp.value());
  }
}

// --------------------------------------------------- channel scheduling

ChannelConfig test_channel_config() {
  ChannelConfig cc;
  cc.banks = 1;
  cc.timing.t_read = Second(10e-9);
  cc.timing.t_write = Second(10e-9);
  cc.timing.t_rcd = Second(1e-9);
  cc.timing.t_rp = Second(1e-9);
  return cc;
}

MemRequest make_request(std::uint64_t id, double arrival,
                        std::uint32_t row) {
  MemRequest r;
  r.id = id;
  r.arrival = arrival;
  r.op = Op::kRead;
  r.bank = 0;
  r.row = row;
  return r;
}

/// Drains the channel, returning retired request counts per step.
void drain(ChannelSim& sim) {
  while (!sim.idle()) sim.step();
}

TEST(ChannelSimTest, FrFcfsServesRowHitsFirst) {
  ChannelConfig cc = test_channel_config();
  cc.coalescing = false;
  ChannelSim sim(cc);
  // Row 5 starts service; rows 9 and 5 queue behind it — FR-FCFS should
  // bypass the queued row-9 access in favour of the row-5 hit.
  sim.submit(make_request(0, 0.0, 5));
  sim.submit(make_request(1, 1e-9, 9));
  sim.submit(make_request(2, 2e-9, 5));
  drain(sim);
  const ChannelStats& s = sim.stats();
  EXPECT_EQ(s.requests(), 3u);
  EXPECT_EQ(s.row_hits, 1u);      // the bypassing row-5 access
  EXPECT_EQ(s.row_misses, 1u);    // the first access (row closed)
  EXPECT_EQ(s.row_conflicts, 1u); // row 9 after row 5 closes it
}

TEST(ChannelSimTest, FcfsKeepsArrivalOrder) {
  ChannelConfig cc = test_channel_config();
  cc.scheduler = SchedulerPolicy::kFcfs;
  cc.coalescing = false;
  ChannelSim sim(cc);
  sim.submit(make_request(0, 0.0, 5));
  sim.submit(make_request(1, 1e-9, 9));
  sim.submit(make_request(2, 2e-9, 5));
  drain(sim);
  // Strict order 5, 9, 5: both queued accesses conflict.
  EXPECT_EQ(sim.stats().row_hits, 0u);
  EXPECT_EQ(sim.stats().row_conflicts, 2u);
}

TEST(ChannelSimTest, StarvationCapBoundsBypasses) {
  ChannelConfig cc = test_channel_config();
  cc.coalescing = false;
  cc.starvation_cap = 3;
  ChannelSim sim(cc);
  // One row-9 access buried under a long run of row-5 hits.  Without the
  // aging cap it would wait for all of them; with cap 3 it is forced
  // after at most 3 bypasses.
  sim.submit(make_request(0, 0.0, 5));
  sim.submit(make_request(1, 1e-9, 9));
  const std::size_t hits_offered = 10;
  for (std::size_t i = 0; i < hits_offered; ++i) {
    sim.submit(make_request(2 + i, 2e-9 + 1e-12 * static_cast<double>(i),
                            5));
  }
  // Count completions until the row-9 access retires: its position is
  // bounded by 1 (initial row-5) + starvation_cap bypasses.
  std::size_t retired_before_victim = 0;
  bool victim_done = false;
  while (!sim.idle() && !victim_done) {
    const std::size_t before = sim.stats().row_conflicts;
    sim.step();
    if (sim.stats().row_conflicts > before) {
      victim_done = true;  // only the row-9 access can conflict
    } else {
      ++retired_before_victim;
    }
  }
  ASSERT_TRUE(victim_done);
  EXPECT_LE(retired_before_victim, 1 + cc.starvation_cap);
  EXPECT_EQ(sim.stats().starvation_promotions, 1u);
  drain(sim);
  EXPECT_EQ(sim.stats().requests(), 2 + hits_offered);
}

TEST(ChannelSimTest, UnboundedCapNeverPromotes) {
  ChannelConfig cc = test_channel_config();
  cc.coalescing = false;
  cc.starvation_cap = 1u << 20;
  ChannelSim sim(cc);
  sim.submit(make_request(0, 0.0, 5));
  sim.submit(make_request(1, 1e-9, 9));
  for (std::size_t i = 0; i < 10; ++i) {
    sim.submit(make_request(2 + i, 2e-9, 5));
  }
  drain(sim);
  EXPECT_EQ(sim.stats().starvation_promotions, 0u);
}

TEST(ChannelSimTest, CoalescesQueuedSameRowReads) {
  ChannelConfig cc = test_channel_config();
  ChannelSim sim(cc);
  sim.submit(make_request(0, 0.0, 5));   // in flight
  sim.submit(make_request(1, 1e-9, 7));  // queued
  sim.submit(make_request(2, 2e-9, 7));  // merges into request 1
  sim.submit(make_request(3, 3e-9, 7));  // merges into request 1
  drain(sim);
  const ChannelStats& s = sim.stats();
  EXPECT_EQ(s.coalesced_reads, 2u);
  EXPECT_EQ(s.requests(), 4u);  // every request still retires + measures
  // Only two data accesses actually served.
  EXPECT_EQ(s.row_hits + s.row_misses + s.row_conflicts, 2u);
}

TEST(ChannelSimTest, InFlightAccessesAreNeverMerged) {
  ChannelConfig cc = test_channel_config();
  ChannelSim sim(cc);
  sim.submit(make_request(0, 0.0, 5));   // in flight, row 5
  sim.submit(make_request(1, 1e-9, 5));  // same row but no queued host
  drain(sim);
  EXPECT_EQ(sim.stats().coalesced_reads, 0u);
  EXPECT_EQ(sim.stats().row_hits, 1u);
}

// ------------------------------------------------ chip-level determinism

ControllerConfig small_chip() {
  ControllerConfig cfg;
  cfg.channels = 4;
  cfg.ranks = 2;
  cfg.banks = 4;
  cfg.rows = 32;
  cfg.requests = 40000;
  cfg.seed = 42;
  return cfg;
}

bool reports_identical(const ControllerReport& a,
                       const ControllerReport& b) {
  if (a.requests != b.requests || a.reads != b.reads ||
      a.writes != b.writes || a.row_hits != b.row_hits ||
      a.row_misses != b.row_misses || a.row_conflicts != b.row_conflicts ||
      a.coalesced_reads != b.coalesced_reads ||
      a.starvation_promotions != b.starvation_promotions ||
      a.peak_queue_depth != b.peak_queue_depth) {
    return false;
  }
  // Bit-identity on the reduced floating-point figures.
  return a.makespan.value() == b.makespan.value() &&
         a.mean_latency.value() == b.mean_latency.value() &&
         a.p99_latency.value() == b.p99_latency.value() &&
         a.max_latency.value() == b.max_latency.value() &&
         a.total_bandwidth_mbps == b.total_bandwidth_mbps &&
         a.total_energy.value() == b.total_energy.value();
}

TEST(RunControllerTest, BitIdenticalAcrossThreadCounts) {
  const ControllerConfig cfg = small_chip();
  const ControllerReport serial = run_controller_traffic(cfg, nullptr);
  EXPECT_EQ(serial.requests, cfg.requests);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const ControllerReport parallel = run_controller_traffic(cfg, &pool);
    EXPECT_TRUE(reports_identical(serial, parallel))
        << "report diverged at " << threads << " threads";
  }
}

TEST(RunControllerTest, SeedChangesTheRun) {
  ControllerConfig cfg = small_chip();
  const ControllerReport a = run_controller_traffic(cfg);
  cfg.seed += 1;
  const ControllerReport b = run_controller_traffic(cfg);
  EXPECT_NE(a.makespan.value(), b.makespan.value());
}

TEST(RunControllerTest, CoalescingTogglesDeterministically) {
  ControllerConfig cfg = small_chip();
  const ControllerReport on1 = run_controller_traffic(cfg);
  const ControllerReport on2 = run_controller_traffic(cfg);
  EXPECT_TRUE(reports_identical(on1, on2));
  cfg.coalescing = false;
  const ControllerReport off = run_controller_traffic(cfg);
  EXPECT_EQ(off.coalesced_reads, 0u);
  EXPECT_GT(on1.coalesced_reads, 0u);
}

TEST(RunControllerTest, FrFcfsBeatsFcfsUnderRowLocality) {
  ControllerConfig cfg = small_chip();
  cfg.row_locality = 0.8;
  cfg.utilization = 0.7;
  cfg.coalescing = false;  // isolate the scheduling effect
  const ControllerReport frfcfs = run_controller_traffic(cfg);
  cfg.scheduler = SchedulerPolicy::kFcfs;
  const ControllerReport fcfs = run_controller_traffic(cfg);
  EXPECT_GT(frfcfs.row_hit_rate, fcfs.row_hit_rate);
  EXPECT_LT(frfcfs.mean_latency.value(), fcfs.mean_latency.value());
}

TEST(RunControllerTest, RowHitsSkipRowManagement) {
  ControllerConfig cfg = small_chip();
  cfg.rows = 1;  // every access after a bank's first is a row hit
  const ControllerReport r = run_controller_traffic(cfg);
  EXPECT_EQ(r.row_misses, cfg.channels * cfg.ranks * cfg.banks);
  EXPECT_EQ(r.row_conflicts, 0u);
  EXPECT_EQ(r.row_hits + r.coalesced_reads,
            r.requests - r.row_misses);
}

TEST(RunControllerTest, NullFaultHookKeepsFaultStatsZero) {
  const ControllerReport r = run_controller_traffic(small_chip());
  EXPECT_FALSE(r.faults_enabled);
  EXPECT_EQ(r.faults.retries, 0u);
  EXPECT_EQ(r.faults.raw_bit_errors, 0u);
}

// ------------------------------------- degenerate config vs the bank sim

TEST(RunControllerTest, BernoulliThresholdTakesProbabilityOneAlways) {
  // A 32-bit draw d takes the event when d < threshold: p = 0 never,
  // p = 1 always (read_fraction 1 keeps every read a read, row_locality
  // 1 keeps every row), p * 2^32 rounded down in between.
  const std::uint64_t draws[] = {0, (1ULL << 31) - 1, 1ULL << 31,
                                 (1ULL << 32) - 1};
  const struct {
    double p;
    bool takes[4];
  } cases[] = {{0.0, {false, false, false, false}},
               {0.5, {true, true, false, false}},
               {std::nextafter(1.0, 0.0), {true, true, true, false}},
               {1.0, {true, true, true, true}}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.p);
    const std::uint64_t t = bernoulli_threshold32(c.p);
    for (int d = 0; d < 4; ++d) {
      EXPECT_EQ(draws[d] < t, c.takes[d]) << "draw " << draws[d];
    }
  }
  EXPECT_EQ(bernoulli_threshold32(0.5), 1ULL << 31);
  EXPECT_EQ(bernoulli_threshold32(1.0), 1ULL << 32);
}

TEST(RunControllerTest, DegenerateChipMatchesBankSimWithinTolerance) {
  // 1 channel x 1 rank, rows = 1: every access after each bank's first
  // is a row hit, so the command path charges exactly the bank_sim
  // service times.  The workload streams differ only in RNG forking, so
  // the steady-state figures must agree closely.
  ControllerConfig ctl;
  ctl.channels = 1;
  ctl.ranks = 1;
  ctl.banks = 4;
  ctl.rows = 1;
  ctl.row_locality = 1.0;
  ctl.coalescing = false;
  ctl.scheduler = SchedulerPolicy::kFcfs;
  ctl.requests = 200000;
  ctl.utilization = 0.6;
  ctl.seed = 9;
  const ControllerReport chip = run_controller_traffic(ctl);

  TrafficConfig bank;
  bank.banks = 4;
  bank.requests = 200000;
  bank.utilization = 0.6;
  bank.seed = 9;
  const TrafficReport flat = run_traffic(bank);

  EXPECT_NEAR(chip.mean_latency.value(), flat.mean_latency.value(),
              0.05 * flat.mean_latency.value());
  EXPECT_NEAR(chip.total_bandwidth_mbps, flat.sustained_bandwidth_mbps,
              0.05 * flat.sustained_bandwidth_mbps);
  EXPECT_NEAR(chip.energy_per_bit_pj, flat.energy_per_bit_pj,
              0.05 * flat.energy_per_bit_pj);
}

}  // namespace
}  // namespace sttram::engine::controller
