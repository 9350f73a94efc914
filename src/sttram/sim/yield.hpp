// Array-level yield experiment: the paper's Fig. 11 (16-kb test chip).
//
// For every cell of a process-varied array, computes the per-bit sense
// margins of the four sensing schemes and classifies the bit against
// the auto-zero sense amplifier's required margin (8 mV).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/common/parallel.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {

/// Per-scheme outcome of the yield experiment.
struct SchemeYield {
  std::string scheme;
  std::size_t bits = 0;
  std::size_t failures = 0;  ///< bits whose min margin < required margin
  RunningStats sm0_stats;    ///< margin-for-0 distribution [V]
  RunningStats sm1_stats;    ///< margin-for-1 distribution [V]
  /// Per-bit (SM0, SM1) pairs in volts (the Fig. 11 scatter).
  std::vector<std::pair<double, double>> scatter;
  /// Per-bit min(SM0, SM1) in volts, row-major — only filled when
  /// YieldConfig::keep_per_bit_margins (the fault overlay's input).
  std::vector<float> per_bit_min_margin;

  [[nodiscard]] double failure_rate() const {
    return bits == 0 ? 0.0
                     : static_cast<double>(failures) /
                           static_cast<double>(bits);
  }
};

/// Configuration of the experiment.
struct YieldConfig {
  ArrayGeometry geometry = ArrayGeometry::test_chip_16kb();
  VariationParams variation{};         ///< MTJ process variation
  double sigma_access = 0.02;          ///< access-device R lognormal sigma
  /// Per-column peripheral mismatch (read-current-driver ratio and
  /// divider ratio), sampled once per bit line.  Small residuals: the
  /// paper trims the current ratio at testing stage to compensate the
  /// divider variation, so only the post-trim mismatch remains.
  double sigma_beta = 0.001;
  double sigma_alpha = 0.001;
  /// Per-column error of the shared reference voltage [V].  The shared
  /// V_REF is generated from reference cells built from the same MTJ
  /// process and routed across the array, so the conventional scheme's
  /// comparison carries this extra error; the self-reference schemes use
  /// no external reference and are immune to it.
  Volt sigma_vref{13.5e-3};
  /// Die-to-die lognormal sigma of an additional common factor applied
  /// to every MTJ on the chip (data and reference cells alike).  The
  /// fixed shared V_REF cannot track it; per-column reference cells and
  /// the self-reference schemes cancel it.  0 models a centered die (the
  /// paper's single measured chip).
  double die_sigma = 0.0;
  SelfRefConfig selfref{};             ///< I_max and designed alpha
  double beta_destructive = 0.0;       ///< 0 = use the scheme's paper_beta()
  double beta_nondestructive = 0.0;    ///< 0 = use the scheme's paper_beta()
  Volt required_margin{8e-3};          ///< auto-zero amp requirement
  std::uint64_t seed = 20100308;       ///< DATE 2010 :-)
  /// Keep at most this many scatter points per scheme: every
  /// ceil(cells / max_scatter_points)-th bit in row-major order, exactly
  /// this many when it divides the cell count; 0 keeps all.
  std::size_t max_scatter_points = 0;
  /// Record every bit's min margin (SchemeYield::per_bit_min_margin) for
  /// the fault/BER overlay.  Off by default; turning it on changes no
  /// other output field (regression-tested).
  bool keep_per_bit_margins = false;
};

/// Result across the four schemes.  Code that walks the schemes reads
/// them through scheme(SchemeId).
struct YieldResult {
  SchemeYield conventional;
  /// Per-column reference-cell sensing (one P + one AP reference pair
  /// per bit line, V_REF = their midpoint) — the industry middle ground.
  SchemeYield reference_cell;
  SchemeYield destructive;
  SchemeYield nondestructive;
  double die_factor = 1.0;  ///< the sampled die-level common factor
  /// Shared-reference window width of Eq. (2) over the sampled array
  /// (negative = no valid shared V_REF exists).
  Volt shared_reference_window{0.0};
  Volt shared_v_ref{0.0};  ///< the midpoint V_REF actually used
  double beta_destructive = 0.0;
  double beta_nondestructive = 0.0;

  /// The member that holds scheme `id`.
  [[nodiscard]] SchemeYield& scheme(SchemeId id) {
    SchemeYield* const members[kSchemeCount] = {
        &conventional, &reference_cell, &destructive, &nondestructive};
    return *members[scheme_index(id)];
  }
  [[nodiscard]] const SchemeYield& scheme(SchemeId id) const {
    return const_cast<YieldResult&>(*this).scheme(id);
  }
};

/// Runs the full experiment.  Deterministic for a given config.  The
/// array is swept in windows of 16 Ki cells through two reused margin
/// buffers (at most 2 MiB, whatever the array size): every chunk of
/// `executor` claims 64-cell blocks of the current window from a shared
/// counter, while chunk 0 first records the previous window serially in
/// row-major order.  The record overlaps sampling, and the result is
/// bit-identical for any thread count, including no executor.
YieldResult run_yield_experiment(const YieldConfig& config,
                                 ParallelExecutor* executor = nullptr);

/// Failure-rate sweep over the common-mode variation sigma — used to
/// calibrate the variation model to the paper's ~1 % conventional-scheme
/// failure rate and to show the self-reference schemes' immunity.
struct YieldSweepPoint {
  double sigma_common = 0.0;
  std::array<double, kSchemeCount> failure_rate{};  ///< by SchemeId
};
std::vector<YieldSweepPoint> sweep_variation(
    const YieldConfig& base, const std::vector<double>& sigmas,
    ParallelExecutor* executor = nullptr);

}  // namespace sttram
