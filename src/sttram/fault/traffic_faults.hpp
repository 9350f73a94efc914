// Per-access fault model for the traffic engine: draws transient read
// bit errors, applies SECDED correction and bounded read-retry, and
// reports the recovery cost the bank simulator must charge.
//
// Implements engine::ReadFaultModel.  Determinism contract: the outcome
// of a request depends only on (config, request id) — each request
// forks its own RNG stream — so traffic runs are bit-identical across
// scheduling policies, workload generators and thread counts.
//
// Attempt a of a read draws codeword bits [a * n, (a + 1) * n) of its
// stream, bit b in error when next_double() < raw_ber.  Both paths count
// them with stats' Bernoulli kernel (count_bernoulli_hits) against the
// exact integer threshold bernoulli_threshold(raw_ber): the engine's
// batch pass counts every read's first attempt W ids at a time, and the
// per-id path (read_outcome, and any read the hint cannot settle) walks
// the id's stream through the same kernel at W = 1.  One attempt loop
// turns the counts into the outcome.
#pragma once

#include <cstdint>
#include <memory>

#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/fault/ecc.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::fault {

/// Error rates and recovery costs of one traffic experiment.
struct TrafficFaultConfig {
  /// Per-bit probability that a read senses a bit wrong (transient: a
  /// retry redraws it).  Derive it from the yield overlay's raw BER or
  /// set it directly for what-if sweeps.
  double raw_ber = 0.0;
  /// SECDED(72,64) over each word: single-bit errors are corrected,
  /// double-bit errors detected (and retried).  Without ECC errors go
  /// undetected — silent corruption, and retries never trigger.
  bool ecc = true;
  /// Total read attempts allowed (1 = no retry).  A retry is issued
  /// only when ECC detects an uncorrectable word.
  std::uint32_t max_attempts = 3;
  /// Cost of one retry: normally the scheme's read service time/energy
  /// (the bank re-runs the whole read).
  Second retry_latency{0.0};
  Joule retry_energy{0.0};
  /// Cost of the SECDED decode, charged once per attempt when ECC is on.
  Second ecc_latency{1e-9};
  Joule ecc_energy{1e-13};
  /// Data bits per access when ECC is off (with ECC the codeword is the
  /// full 72 bits of SECDED(72,64)).
  std::size_t word_bits = kEccDataBits;
  std::uint64_t seed = 1;
};

/// The engine hook.  Stateless across requests apart from the master
/// stream, which is forked per request id.
class TrafficFaultModel final : public engine::ReadFaultModel {
 public:
  explicit TrafficFaultModel(const TrafficFaultConfig& config);

  [[nodiscard]] engine::ReadFaultOutcome read_outcome(
      std::uint64_t request_id) const override;

  /// hints[i] = 1 + the first attempt's raw error count of read ids[i],
  /// 255 for a count past 253 (a hint that settles nothing).
  void first_attempt_hints(const std::uint64_t* ids, std::size_t n,
                           std::uint8_t* hints) const override;

  /// Finishes from the hint when the first attempt settles the read (no
  /// error, one corrected error, no ECC, or no retry allowed); replays
  /// the id through read_outcome when a retry follows or the hint holds
  /// no count.
  [[nodiscard]] engine::ReadFaultOutcome hinted_outcome(
      std::uint64_t request_id, std::uint8_t hint) const override;

  [[nodiscard]] const TrafficFaultConfig& config() const { return config_; }

 private:
  /// The attempt loop: `next_errors()` yields each attempt's raw error
  /// count in turn.
  template <class NextErrors>
  engine::ReadFaultOutcome attempt_loop(NextErrors next_errors) const;

  TrafficFaultConfig config_;
  Xoshiro256 master_;
  std::size_t codeword_bits_;
  std::uint64_t threshold_ = 0;  ///< bernoulli_threshold(raw_ber)
};

/// The fault hook of a traffic run over banks of `scheme`: per-bit read
/// error rate `raw_ber`, optional SECDED, `max_attempts` reads in all,
/// and `word_bits` data bits per access (the word read when ECC is off).
/// A retry re-runs the whole read, so it costs the scheme's read service
/// time and energy (engine::scheme_bank_timing).  The hook draws from
/// its own stream, seeded `workload_seed ^ 0x5717fa7ee1d`.  Both the
/// traffic engine and the chip-scale controller take this hook.
[[nodiscard]] std::unique_ptr<TrafficFaultModel> make_traffic_fault_model(
    double raw_ber, bool ecc, std::uint32_t max_attempts,
    std::size_t word_bits, SchemeId scheme,
    const CostComparisonConfig& cost, std::uint64_t workload_seed);

}  // namespace sttram::fault
