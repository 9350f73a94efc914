// Rare-event yield-tail estimation: the probability that a bit's sense
// margin falls below the sense-amp requirement, resolved far beyond
// what the 16-kb Monte Carlo can see (Fig. 11 reported zero failures;
// this module answers "zero out of how many?").
#pragma once

#include <cstdint>
#include <vector>

#include "sttram/device/variation.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/stats/importance.hpp"

namespace sttram {

/// Variation space of one bit (standard-normal coordinates):
/// z = (common, tmr, access, beta driver, divider alpha).
struct TailConfig {
  VariationParams variation{};   ///< device sigmas
  double sigma_access = 0.02;    ///< access-device lognormal sigma
  double sigma_beta = 0.001;     ///< per-column ratio residual
  double sigma_alpha = 0.001;    ///< per-column divider residual
  SelfRefConfig selfref{};
  double beta = 0.0;             ///< 0 = nominal paper_beta()
  Volt threshold{8e-3};          ///< sense-amp requirement
};

/// Number of standard-normal coordinates in the variation space.
inline constexpr std::size_t kTailDimensions = 5;

/// Worst-of-both-margins of the nondestructive scheme for a bit at
/// variation coordinates `z` (see TailConfig for the axis order).
double nondestructive_margin_at(const TailConfig& config,
                                const std::vector<double>& z);

/// Result of the tail estimation.
struct TailEstimate {
  ImportanceEstimate estimate;        ///< P(margin < threshold) per bit
  std::vector<double> design_point;   ///< dominant failure point (z)
  double design_radius = 0.0;         ///< |z*| in sigmas
  double expected_failures_16kb = 0.0;
};

/// Finds the design point of the margin function and importance-samples
/// the per-bit failure probability.  With `executor` set, the sampling
/// phase runs in parallel (bit-identical; see importance_sample).
TailEstimate estimate_margin_tail(const TailConfig& config,
                                  std::uint64_t seed = 1,
                                  std::size_t trials = 20000,
                                  ParallelExecutor* executor = nullptr);

}  // namespace sttram
