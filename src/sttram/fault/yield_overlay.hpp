// Fault overlay of the yield experiment: turns the per-bit sense
// margins of the Monte-Carlo yield run plus an injected fault map into
// raw and post-ECC bit-error rates per sensing scheme.
//
// Fully analytic — no extra RNG beyond the yield experiment and the
// fault map.  Per bit, the read-error probability combines
//   * a hard component from the injected fault class (persists across
//     retries), and
//   * a transient component Q(margin / sigma_noise) from comparator
//     noise (each retry redraws it),
// and per 64-bit word a running product gives the exact probabilities
// of 0 / 1 / >= 2 errors — SECDED(72,64) corrects one and detects two,
// so those are the only quantities the word-error rate needs.
#pragma once

#include <array>
#include <string>

#include "sttram/common/parallel.hpp"
#include "sttram/fault/ecc.hpp"
#include "sttram/fault/fault_model.hpp"
#include "sttram/sim/yield.hpp"

namespace sttram::fault {

/// ECC / retry configuration of the overlay.
struct BerConfig {
  bool ecc = true;
  /// Total read attempts (1 = no retry).  A retry only helps against
  /// the transient component; hard faults persist.  Without ECC there
  /// is no detection, so attempts beyond the first are ignored.
  std::uint32_t read_attempts = 1;
  /// Data bits per ECC word.
  std::size_t word_bits = static_cast<std::size_t>(kEccDataBits);
  /// Comparator input-referred noise (1-sigma) the margin must clear.
  Volt noise_sigma{2e-3};
};

/// Error rates of one sensing scheme over the injected array.
struct SchemeBer {
  std::string scheme;
  double raw_ber = 0.0;       ///< mean per-bit error prob, first read
  double hard_bit_fraction = 0.0;  ///< mean hard (persistent) component
  double post_ecc_wer = 0.0;  ///< word uncorrectable prob after recovery
  double post_ecc_ber = 0.0;  ///< residual per-bit error prob
};

/// Yield experiment + fault overlay, all four schemes.
struct FaultYieldResult {
  YieldResult yield;
  FaultConfig faults;         ///< the campaign that was overlaid
  std::size_t faulty_bits = 0;
  std::array<SchemeBer, kSchemeCount> schemes;  ///< by SchemeId

  [[nodiscard]] const SchemeBer& scheme(SchemeId id) const {
    return schemes[scheme_index(id)];
  }
};

/// Runs the yield experiment with per-bit margins retained, generates a
/// fault map from `faults` (seeded from the yield seed) and evaluates
/// the BER model per scheme.  The drift class only corrupts the
/// externally-referenced schemes (conventional, reference-cell): the
/// self-reference schemes track a common-mode resistance shift.
/// Deterministic and thread-count invariant.
FaultYieldResult run_yield_with_faults(const YieldConfig& config,
                                       const FaultConfig& faults,
                                       const BerConfig& ber,
                                       ParallelExecutor* executor = nullptr);

}  // namespace sttram::fault
