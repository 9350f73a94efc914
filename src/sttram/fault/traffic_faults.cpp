#include "sttram/fault/traffic_faults.hpp"

#include <algorithm>

#include "sttram/common/error.hpp"
#include "sttram/engine/controller/command.hpp"
#include "sttram/stats/batch.hpp"

namespace sttram::fault {
namespace {

/// A hint is 1 + the first attempt's error count; counts from
/// kSaturatedHint - 1 up share kSaturatedHint, which settles nothing.
constexpr std::uint8_t kSaturatedHint = 255;

}  // namespace

TrafficFaultModel::TrafficFaultModel(const TrafficFaultConfig& config)
    : config_(config),
      master_(config.seed),
      codeword_bits_(config.ecc ? static_cast<std::size_t>(kEccCodewordBits)
                                : config.word_bits) {
  require(config.raw_ber >= 0.0 && config.raw_ber <= 1.0,
          "TrafficFaultModel: raw_ber must be in [0, 1]");
  require(config.max_attempts >= 1,
          "TrafficFaultModel: need at least one read attempt");
  require(config.word_bits > 0,
          "TrafficFaultModel: word_bits must be > 0");
  threshold_ = bernoulli_threshold(config.raw_ber);
}

template <class NextErrors>
engine::ReadFaultOutcome TrafficFaultModel::attempt_loop(
    NextErrors next_errors) const {
  engine::ReadFaultOutcome outcome;
  const std::uint32_t attempts =
      config_.ecc ? config_.max_attempts : 1;  // no detection, no retry
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      ++outcome.attempts;
      outcome.extra_latency += config_.retry_latency;
      outcome.extra_energy += config_.retry_energy;
    }
    if (config_.ecc) {
      outcome.extra_latency += config_.ecc_latency;
      outcome.extra_energy += config_.ecc_energy;
    }
    // Transient errors: every attempt redraws each codeword bit.
    const std::uint32_t errors = next_errors();
    outcome.raw_bit_errors += errors;
    if (errors == 0) {
      outcome.uncorrectable = false;
      return outcome;
    }
    if (!config_.ecc) {
      // No detection path: the corrupted word is consumed as-is.
      outcome.silent = true;
      return outcome;
    }
    if (errors == 1) {
      outcome.corrected = true;
      outcome.uncorrectable = false;
      return outcome;
    }
    // >= 2 errors: SECDED detects but cannot correct — retry if allowed.
    outcome.uncorrectable = true;
  }
  return outcome;
}

engine::ReadFaultOutcome TrafficFaultModel::read_outcome(
    std::uint64_t request_id) const {
  if (config_.raw_ber <= 0.0) return attempt_loop([] { return 0u; });
  BernoulliStream stream(master_, request_id);
  return attempt_loop(
      [&] { return stream.count(codeword_bits_, threshold_); });
}

void TrafficFaultModel::first_attempt_hints(const std::uint64_t* ids,
                                            std::size_t n,
                                            std::uint8_t* hints) const {
  constexpr std::size_t kBatch = engine::kFaultHintBatch;
  std::uint32_t counts[kBatch];
  for (std::size_t base = 0; base < n; base += kBatch) {
    const std::size_t m = std::min(kBatch, n - base);
    if (config_.raw_ber <= 0.0) {
      std::fill_n(counts, m, 0u);
    } else {
      count_bernoulli_hits(master_, ids + base, m, codeword_bits_,
                           threshold_, counts);
    }
    for (std::size_t i = 0; i < m; ++i) {
      hints[base + i] = static_cast<std::uint8_t>(
          1 + std::min<std::uint32_t>(counts[i], kSaturatedHint - 1));
    }
  }
}

engine::ReadFaultOutcome TrafficFaultModel::hinted_outcome(
    std::uint64_t request_id, std::uint8_t hint) const {
  const std::uint32_t first = hint - 1u;
  const bool settles =
      hint != engine::kNoFaultHint && hint != kSaturatedHint &&
      (first < 2 || !config_.ecc || config_.max_attempts == 1);
  if (!settles) return read_outcome(request_id);
  return attempt_loop([first] { return first; });
}

std::unique_ptr<TrafficFaultModel> make_traffic_fault_model(
    double raw_ber, bool ecc, std::uint32_t max_attempts,
    std::size_t word_bits, SchemeId scheme,
    const CostComparisonConfig& cost, std::uint64_t workload_seed) {
  TrafficFaultConfig fc;
  fc.raw_ber = raw_ber;
  fc.ecc = ecc;
  fc.max_attempts = max_attempts;
  fc.word_bits = word_bits;
  const engine::BankTiming timing = engine::scheme_bank_timing(scheme, cost);
  fc.retry_latency = timing.read_service;
  fc.retry_energy = timing.read_energy;
  fc.seed = workload_seed ^ 0x5717fa7ee1dULL;
  return std::make_unique<TrafficFaultModel>(fc);
}

}  // namespace sttram::fault
