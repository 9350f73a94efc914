#include "sttram/fault/yield_overlay.hpp"

#include <cmath>

#include "sttram/common/error.hpp"

namespace sttram::fault {
namespace {

/// P(error) of a read comparison whose margin is `margin` against
/// Gaussian comparator noise: Q(margin / sigma).  A negative margin
/// (variation victim) errs with probability > 1/2 and is treated as a
/// hard failure by the caller.
double transient_error_probability(double margin, double sigma) {
  if (sigma <= 0.0) return margin < 0.0 ? 1.0 : 0.0;
  return 0.5 * std::erfc(margin / (sigma * std::sqrt(2.0)));
}

/// Hard (retry-persistent) error probability contributed by the
/// injected fault class of a bit.  The values are the expected
/// wrong-read fractions over uniform data: a stuck-at or decayed cell
/// disagrees with random data half the time; a transition victim holds
/// stale data for a quarter of read-after-write patterns; a drift
/// outlier misreads against an external reference but is recovered by
/// the self-reference schemes; a read-disturb victim flips with the
/// scheme-specific probability computed from the switching model.
double hard_error_probability(FaultType type, double disturb_p,
                              bool externally_referenced) {
  switch (type) {
    case FaultType::kNone:
      return 0.0;
    case FaultType::kStuckAtZero:
    case FaultType::kStuckAtOne:
      return 0.5;
    case FaultType::kTransitionUp:
    case FaultType::kTransitionDown:
      return 0.25;
    case FaultType::kRetention:
      return 0.5;
    case FaultType::kReadDisturb:
      return disturb_p;
    case FaultType::kDriftOutlier:
      return externally_referenced ? 0.5 : 0.0;
  }
  return 0.0;
}

/// Evaluates the BER model of one scheme over its per-bit margins.
SchemeBer evaluate_scheme(const SchemeYield& yield, const FaultMap& map,
                          double disturb_p, bool externally_referenced,
                          const BerConfig& ber) {
  const std::vector<float>& margins = yield.per_bit_min_margin;
  require(margins.size() == map.geometry().cell_count(),
          "yield overlay: per-bit margins missing (keep_per_bit_margins)");
  const double sigma = ber.noise_sigma.value();
  const std::size_t cols = map.geometry().cols;
  const std::uint32_t attempts =
      ber.ecc ? (ber.read_attempts >= 1 ? ber.read_attempts : 1) : 1;

  SchemeBer out;
  out.scheme = yield.scheme;

  double raw_sum = 0.0;
  double hard_sum = 0.0;
  double wer_sum = 0.0;       // per-word uncorrectable probability
  double residual_sum = 0.0;  // expected escaped bit errors
  std::size_t words = 0;

  // Running word state: exact P(0 errors), P(1 error) and E[errors]
  // over the word's bits (independent per-bit error events).
  double p0 = 1.0, p1 = 0.0, mean_errors = 0.0;
  std::size_t bits_in_word = 0;

  const auto add_bit = [&](double e) {
    p1 = p1 * (1.0 - e) + p0 * e;
    p0 *= (1.0 - e);
    mean_errors += e;
    ++bits_in_word;
  };
  const auto flush_word = [&]() {
    if (bits_in_word == 0) return;
    if (ber.ecc) {
      // SECDED: 0 errors clean, 1 corrected, >= 2 uncorrectable (all of
      // the word's errors escape: no correction is applied).
      const double p_ge2 = std::max(0.0, 1.0 - p0 - p1);
      wer_sum += p_ge2;
      residual_sum += std::max(0.0, mean_errors - p1);
    } else {
      wer_sum += 1.0 - p0;
      residual_sum += mean_errors;
    }
    ++words;
    p0 = 1.0;
    p1 = 0.0;
    mean_errors = 0.0;
    bits_in_word = 0;
  };

  for (std::size_t idx = 0; idx < margins.size(); ++idx) {
    const std::size_t row = idx / cols;
    const std::size_t col = idx % cols;
    const double margin = static_cast<double>(margins[idx]);
    const double q = transient_error_probability(margin, sigma);
    double hard = hard_error_probability(map.type_at(row, col), disturb_p,
                                         externally_referenced);
    if (margin < 0.0) hard = 1.0;  // deterministic misread: yield victim
    const double raw = hard + (1.0 - hard) * q;
    raw_sum += raw;
    hard_sum += hard;
    // Retries redraw the transient component; the hard one persists.
    const double q_retried =
        attempts > 1 ? std::pow(q, static_cast<double>(attempts)) : q;
    add_bit(hard + (1.0 - hard) * q_retried);
    if (bits_in_word == ber.word_bits) {
      if (ber.ecc) {
        // The SECDED check bits live in cells of the same array; model
        // them with the word's mean per-bit error probability.
        const double mean_e = mean_errors / static_cast<double>(bits_in_word);
        for (int k = 0; k < kEccCheckBits; ++k) add_bit(mean_e);
      }
      flush_word();
    }
  }
  flush_word();  // partial trailing word, if any

  const double n = static_cast<double>(margins.size());
  out.raw_ber = raw_sum / n;
  out.hard_bit_fraction = hard_sum / n;
  if (words > 0) {
    out.post_ecc_wer = wer_sum / static_cast<double>(words);
    out.post_ecc_ber =
        residual_sum /
        (static_cast<double>(words) * static_cast<double>(ber.word_bits));
  }
  return out;
}

}  // namespace

FaultYieldResult run_yield_with_faults(const YieldConfig& config,
                                       const FaultConfig& faults,
                                       const BerConfig& ber,
                                       ParallelExecutor* executor) {
  require(ber.word_bits > 0, "yield overlay: word_bits must be > 0");

  YieldConfig yield_config = config;
  yield_config.keep_per_bit_margins = true;

  FaultYieldResult result;
  result.yield = run_yield_experiment(yield_config, executor);
  result.faults = faults;

  const FaultMap map = generate_fault_map(
      config.geometry, faults, config.seed ^ 0xfa171defac7edULL, executor);
  result.faulty_bits = map.total();

  // Scheme-specific disturb probability of a weak cell over its
  // exposure, from the switching model at that scheme's read currents.
  MtjParams weak = faults.nominal;
  weak.i_critical = faults.weak_icrit_factor * weak.i_critical;
  for (const SchemeRow& row : kSchemeTable) {
    const double p = scheme_read_disturb_probability(
        row.id, weak, faults.selfref, faults.timing);
    const double p_weak =
        1.0 - std::pow(1.0 - p, static_cast<double>(faults.exposure_reads));
    result.schemes[scheme_index(row.id)] =
        evaluate_scheme(result.yield.scheme(row.id), map, p_weak,
                        row.externally_referenced, ber);
  }
  return result;
}

}  // namespace sttram::fault
