// The traffic fault hook against a written-out oracle of its per-read
// loop: read_outcome(id), the batch pass (first_attempt_hints) and the
// hinted finish must each reproduce the oracle's outcome, doubles
// bitwise, under every SIMD ISA the host runs; and the engines that
// carry hints must report exactly what a hook without hints reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sttram/common/simd.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/fault/traffic_faults.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/rng.hpp"

using namespace sttram;
using namespace sttram::fault;

namespace {

/// The per-read loop as it was written before the counting kernel: one
/// next_double() < raw_ber compare per codeword bit per attempt, drawn
/// from master.fork(id), then SECDED and bounded retry.
engine::ReadFaultOutcome oracle_outcome(const TrafficFaultConfig& config,
                                        std::uint64_t request_id) {
  engine::ReadFaultOutcome outcome;
  if (config.raw_ber <= 0.0) {
    if (config.ecc) {
      outcome.extra_latency += config.ecc_latency;
      outcome.extra_energy += config.ecc_energy;
    }
    return outcome;
  }
  const std::size_t codeword_bits =
      config.ecc ? static_cast<std::size_t>(kEccCodewordBits)
                 : config.word_bits;
  Xoshiro256 rng = Xoshiro256(config.seed).fork(request_id);
  const std::uint32_t attempts = config.ecc ? config.max_attempts : 1;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++outcome.attempts;
      outcome.extra_latency += config.retry_latency;
      outcome.extra_energy += config.retry_energy;
    }
    if (config.ecc) {
      outcome.extra_latency += config.ecc_latency;
      outcome.extra_energy += config.ecc_energy;
    }
    std::uint32_t errors = 0;
    for (std::size_t b = 0; b < codeword_bits; ++b) {
      if (rng.next_double() < config.raw_ber) ++errors;
    }
    outcome.raw_bit_errors += errors;
    if (errors == 0) {
      outcome.uncorrectable = false;
      return outcome;
    }
    if (!config.ecc) {
      outcome.silent = true;
      return outcome;
    }
    if (errors == 1) {
      outcome.corrected = true;
      outcome.uncorrectable = false;
      return outcome;
    }
    outcome.uncorrectable = true;
  }
  return outcome;
}

/// The oracle's first-attempt error count of one read.
std::uint32_t oracle_first_count(const TrafficFaultConfig& config,
                                 std::uint64_t request_id) {
  const std::size_t codeword_bits =
      config.ecc ? static_cast<std::size_t>(kEccCodewordBits)
                 : config.word_bits;
  Xoshiro256 rng = Xoshiro256(config.seed).fork(request_id);
  std::uint32_t errors = 0;
  for (std::size_t b = 0; b < codeword_bits; ++b) {
    if (rng.next_double() < config.raw_ber) ++errors;
  }
  return errors;
}

/// A hook that runs the oracle and hints nothing: the engines report
/// with it what they reported before hints existed.
class OracleHook final : public engine::ReadFaultModel {
 public:
  explicit OracleHook(const TrafficFaultConfig& config) : config_(config) {}
  engine::ReadFaultOutcome read_outcome(
      std::uint64_t request_id) const override {
    return oracle_outcome(config_, request_id);
  }
  void first_attempt_hints(const std::uint64_t*, std::size_t n,
                           std::uint8_t* hints) const override {
    std::fill_n(hints, n, engine::kNoFaultHint);
  }
  engine::ReadFaultOutcome hinted_outcome(std::uint64_t request_id,
                                          std::uint8_t) const override {
    return oracle_outcome(config_, request_id);
  }

 private:
  TrafficFaultConfig config_;
};

void expect_same_outcome(const engine::ReadFaultOutcome& want,
                         const engine::ReadFaultOutcome& got) {
  EXPECT_EQ(want.attempts, got.attempts);
  EXPECT_EQ(want.raw_bit_errors, got.raw_bit_errors);
  EXPECT_EQ(want.corrected, got.corrected);
  EXPECT_EQ(want.uncorrectable, got.uncorrectable);
  EXPECT_EQ(want.silent, got.silent);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.extra_latency.value()),
            std::bit_cast<std::uint64_t>(got.extra_latency.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.extra_energy.value()),
            std::bit_cast<std::uint64_t>(got.extra_energy.value()));
}

void expect_same_stats(const engine::TrafficFaultStats& want,
                       const engine::TrafficFaultStats& got) {
  EXPECT_EQ(want.faulty_reads, got.faulty_reads);
  EXPECT_EQ(want.retries, got.retries);
  EXPECT_EQ(want.raw_bit_errors, got.raw_bit_errors);
  EXPECT_EQ(want.corrected_words, got.corrected_words);
  EXPECT_EQ(want.uncorrectable_words, got.uncorrectable_words);
  EXPECT_EQ(want.silent_corruptions, got.silent_corruptions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.extra_latency.value()),
            std::bit_cast<std::uint64_t>(got.extra_latency.value()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.extra_energy.value()),
            std::bit_cast<std::uint64_t>(got.extra_energy.value()));
}

/// RAII ISA pin, so a failed expectation cannot leak the override.
class ScopedSimdIsa {
 public:
  explicit ScopedSimdIsa(SimdIsa isa) { set_simd_isa_override(isa); }
  ~ScopedSimdIsa() { clear_simd_isa_override(); }
  ScopedSimdIsa(const ScopedSimdIsa&) = delete;
  ScopedSimdIsa& operator=(const ScopedSimdIsa&) = delete;
};

std::vector<SimdIsa> host_isas() {
  std::vector<SimdIsa> out;
  for (const SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kSse2, SimdIsa::kNeon,
                            SimdIsa::kAvx2, SimdIsa::kAvx512}) {
    if (simd_isa_supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Ids 0..199, then 56 scattered 64-bit ids (the extremes included).
std::vector<std::uint64_t> test_ids() {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 0; id < 200; ++id) ids.push_back(id);
  SplitMix64 scatter(77);
  for (int k = 0; k < 54; ++k) ids.push_back(scatter.next_u64());
  ids.push_back(std::numeric_limits<std::uint64_t>::max());
  ids.push_back(std::uint64_t{1} << 63);
  return ids;
}

TrafficFaultConfig hook_config(double ber, bool ecc, std::size_t word_bits,
                               std::uint32_t max_attempts) {
  TrafficFaultConfig c;
  c.raw_ber = ber;
  c.ecc = ecc;
  c.word_bits = word_bits;
  c.max_attempts = max_attempts;
  c.retry_latency = Second(27.5e-9);
  c.retry_energy = Joule(0.31e-12);
  c.seed = 20100308 ^ 0x5717fa7ee1dULL;
  return c;
}

}  // namespace

TEST(BernoulliThreshold, IsTheExactIntegerFormOfTheDoubleCompare) {
  // next_double() is m * 2^-53 for m = x >> 11.  The threshold T must
  // split the integers exactly where the double compare does: m = T - 1
  // hits and m = T misses.
  const double ps[] = {0.0,
                       std::numeric_limits<double>::denorm_min(),
                       std::ldexp(1.0, -60),
                       std::ldexp(1.0, -53),
                       std::ldexp(3.0, -54),
                       1e-4,
                       1e-3,
                       1e-2,
                       1.0 / 3.0,
                       0.5,
                       0.99,
                       std::nextafter(1.0, 0.0),
                       1.0};
  const std::uint64_t two53 = std::uint64_t{1} << 53;
  for (const double p : ps) {
    SCOPED_TRACE(p);
    const std::uint64_t t = bernoulli_threshold(p);
    const auto hits = [p](std::uint64_t m) {
      return static_cast<double>(m) * 0x1.0p-53 < p;
    };
    ASSERT_LE(t, two53);
    if (t > 0) {
      EXPECT_TRUE(hits(t - 1));
    }
    if (t < two53) {
      EXPECT_FALSE(hits(t));
    }
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(std::numeric_limits<double>::denorm_min()),
            1u);
  EXPECT_EQ(bernoulli_threshold(1.0), two53);
}

TEST(BernoulliCounts, BatchesMatchTheScalarStreamAtEveryWidthAndLength) {
  // count_bernoulli_hits over every batch length 0..2W+1 of the widest
  // ISA, at offsets that start mid-strip, and BernoulliStream's counts
  // continuing across calls, against next_double() < p on
  // master.fork(id).
  const Xoshiro256 master(42);
  const double p = 0.3;
  const std::uint64_t t = bernoulli_threshold(p);
  const std::vector<std::uint64_t> ids = test_ids();
  const auto oracle = [&](std::uint64_t id, std::size_t skip,
                          std::size_t draws) {
    Xoshiro256 rng = master.fork(id);
    for (std::size_t k = 0; k < skip; ++k) (void)rng.next_u64();
    std::uint32_t hits = 0;
    for (std::size_t k = 0; k < draws; ++k) hits += rng.next_double() < p;
    return hits;
  };
  for (const SimdIsa isa : host_isas()) {
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    for (std::size_t n = 0; n <= 17; ++n) {
      for (const std::size_t first : {0u, 3u, 190u}) {
        std::vector<std::uint32_t> counts(n + 1, 0xdeadbeef);
        count_bernoulli_hits(master, ids.data() + first, n, 37, t,
                             counts.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(counts[i], oracle(ids[first + i], 0, 37))
              << "n " << n << " lane " << i;
        }
        EXPECT_EQ(counts[n], 0xdeadbeefu) << "wrote past the batch";
      }
    }
  }
  for (const std::uint64_t id : {0ULL, 5ULL, ~0ULL}) {
    BernoulliStream stream(master, id);
    EXPECT_EQ(stream.count(10, t), oracle(id, 0, 10));
    EXPECT_EQ(stream.count(0, t), 0u);
    EXPECT_EQ(stream.count(25, t), oracle(id, 10, 25));
  }
}

TEST(TrafficFaultHook, EveryPathMatchesTheOracleUnderEveryIsa) {
  const double bers[] = {0.0, std::numeric_limits<double>::denorm_min(),
                         1e-4, 1e-3, 1e-2, 0.5, 1.0};
  const std::vector<std::uint64_t> ids = test_ids();
  for (const SimdIsa isa : host_isas()) {
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    for (const double ber : bers) {
      for (const bool ecc : {true, false}) {
        for (const std::size_t word_bits : {1u, 13u, 64u, 300u}) {
          for (const std::uint32_t attempts : {1u, 3u, 5u}) {
            SCOPED_TRACE(testing::Message()
                         << "ber " << ber << " ecc " << ecc << " word_bits "
                         << word_bits << " attempts " << attempts);
            const TrafficFaultConfig cfg =
                hook_config(ber, ecc, word_bits, attempts);
            const TrafficFaultModel model(cfg);
            std::vector<std::uint8_t> hints(ids.size());
            model.first_attempt_hints(ids.data(), ids.size(), hints.data());
            for (std::size_t i = 0; i < ids.size(); ++i) {
              const engine::ReadFaultOutcome want =
                  oracle_outcome(cfg, ids[i]);
              expect_same_outcome(want, model.read_outcome(ids[i]));
              expect_same_outcome(want, model.hinted_outcome(ids[i], hints[i]));
              expect_same_outcome(
                  want, model.hinted_outcome(ids[i], engine::kNoFaultHint));
              const std::uint32_t first = oracle_first_count(cfg, ids[i]);
              EXPECT_EQ(hints[i], std::min<std::uint32_t>(first, 254) + 1)
                  << "id " << ids[i];
            }
          }
        }
      }
    }
  }
}

TEST(TrafficFaultHook, ShortBatchesHintEveryLane) {
  // Batch lengths 0..2W+1 of the widest width (W = 8), from offsets
  // that start mid-strip: a dropped or swapped lane shows as a wrong
  // hint.
  const TrafficFaultConfig cfg = hook_config(1e-2, true, 64, 3);
  const TrafficFaultModel model(cfg);
  const std::vector<std::uint64_t> ids = test_ids();
  for (const SimdIsa isa : host_isas()) {
    SCOPED_TRACE(simd_isa_name(isa));
    ScopedSimdIsa forced(isa);
    for (std::size_t n = 0; n <= 17; ++n) {
      for (const std::size_t first : {0u, 1u, 5u, 201u}) {
        std::vector<std::uint8_t> hints(n + 1, 0xab);
        model.first_attempt_hints(ids.data() + first, n, hints.data());
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hints[i], oracle_first_count(cfg, ids[first + i]) + 1)
              << "n " << n << " lane " << i;
        }
        EXPECT_EQ(hints[n], 0xab) << "wrote past the batch";
      }
    }
  }
}

TEST(TrafficFaultHook, CountsPastTheHintRangeReplayTheId) {
  // 300 bits at BER 0.99 without ECC: ~297 errors, past the 253 a hint
  // can carry.  The hint saturates and the finish replays the id.
  const TrafficFaultConfig cfg = hook_config(0.99, false, 300, 3);
  const TrafficFaultModel model(cfg);
  const std::vector<std::uint64_t> ids = test_ids();
  std::vector<std::uint8_t> hints(ids.size());
  model.first_attempt_hints(ids.data(), ids.size(), hints.data());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const engine::ReadFaultOutcome want = oracle_outcome(cfg, ids[i]);
    ASSERT_GT(want.raw_bit_errors, 253u);
    EXPECT_EQ(hints[i], 255);
    expect_same_outcome(want, model.hinted_outcome(ids[i], hints[i]));
  }
}

TEST(TrafficFaultHook, TraceHintBytesAreNeverTrusted) {
  // A caller-built trace whose requests carry garbage hint bytes runs
  // exactly as it does through a hook that takes no hints.
  const TrafficFaultConfig cfg = hook_config(2e-2, true, 64, 3);
  const TrafficFaultModel model(cfg);
  const OracleHook oracle(cfg);
  engine::TrafficConfig tc;
  tc.requests = 3000;
  tc.banks = 4;
  tc.read_fraction = 0.8;
  tc.seed = 5;
  tc.workload = engine::WorkloadKind::kTrace;
  engine::PoissonWorkloadConfig gen;
  gen.requests = tc.requests;
  gen.mean_interarrival = Second(5e-9);
  gen.read_fraction = tc.read_fraction;
  gen.banks = tc.banks;
  gen.seed = 5;
  tc.trace = engine::generate_poisson_workload(gen);
  SplitMix64 garbage(3);
  for (engine::Request& r : tc.trace) {
    r.fault_hint = static_cast<std::uint8_t>(garbage.next_u64());
  }
  tc.faults = &oracle;
  const engine::TrafficReport want = engine::run_traffic(tc);
  tc.faults = &model;
  const engine::TrafficReport got = engine::run_traffic(tc);
  ASSERT_GT(want.faults.retries, 0u);
  expect_same_stats(want.faults, got.faults);
  EXPECT_EQ(want.makespan.value(), got.makespan.value());
  EXPECT_EQ(want.mean_latency.value(), got.mean_latency.value());
  EXPECT_EQ(want.max_latency.value(), got.max_latency.value());
  EXPECT_EQ(want.total_energy.value(), got.total_energy.value());
}

TEST(TrafficFaultHook, EnginesReportWhatAnUnhintedHookReports) {
  // The hint pass of each engine (run_traffic's open-loop stream, the
  // controller's generation blocks) against the same hook without hints,
  // under every ISA; the controller also on 4 threads.
  engine::ThreadPool pool(4);
  for (const bool ecc : {true, false}) {
    SCOPED_TRACE(ecc);
    const TrafficFaultConfig cfg = hook_config(1e-2, ecc, 32, 3);
    const OracleHook oracle(cfg);
    engine::TrafficConfig tc;
    tc.requests = 4000;
    tc.seed = 17;
    tc.faults = &oracle;
    const engine::TrafficReport t_want = engine::run_traffic(tc);
    engine::controller::ControllerConfig cc;
    cc.channels = 3;
    cc.ranks = 2;
    cc.banks = 4;
    cc.requests = 5003;  // channel shards that end mid-block
    cc.seed = 23;
    cc.faults = &oracle;
    const engine::controller::ControllerReport c_want =
        engine::controller::run_controller_traffic(cc);
    for (const SimdIsa isa : host_isas()) {
      SCOPED_TRACE(simd_isa_name(isa));
      ScopedSimdIsa forced(isa);
      const TrafficFaultModel model(cfg);
      tc.faults = &model;
      const engine::TrafficReport t_got = engine::run_traffic(tc);
      expect_same_stats(t_want.faults, t_got.faults);
      EXPECT_EQ(t_want.makespan.value(), t_got.makespan.value());
      EXPECT_EQ(t_want.mean_latency.value(), t_got.mean_latency.value());
      cc.faults = &model;
      for (engine::ThreadPool* exec : {static_cast<engine::ThreadPool*>(nullptr),
                                       &pool}) {
        const engine::controller::ControllerReport c_got =
            engine::controller::run_controller_traffic(cc, exec);
        expect_same_stats(c_want.faults, c_got.faults);
        EXPECT_EQ(c_want.makespan.value(), c_got.makespan.value());
        EXPECT_EQ(c_want.mean_latency.value(), c_got.mean_latency.value());
        EXPECT_EQ(c_want.total_energy.value(), c_got.total_energy.value());
      }
    }
  }
}
