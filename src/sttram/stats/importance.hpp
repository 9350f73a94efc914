// Importance sampling for rare failure events in Gaussian variation
// space.
//
// Yield questions like "what fraction of bits fall below the 8 mV
// margin?" sit so far in the tail that naive Monte Carlo over a 16-kb
// array sees zero failures.  Shifting the sampling distribution to the
// dominant failure (design) point and reweighting with the likelihood
// ratio resolves probabilities down to ~1e-12 with a few thousand
// samples.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sttram/common/parallel.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// Result of an importance-sampled probability estimate.
struct ImportanceEstimate {
  double probability = 0.0;
  double std_error = 0.0;       ///< standard error of the estimate
  double relative_error = 0.0;  ///< std_error / probability (0 if p == 0)
  std::size_t trials = 0;
  std::size_t hits = 0;         ///< raw failing samples (unweighted)
};

/// Estimates P(fails(z)) for z ~ N(0, I)^d by drawing from the shifted
/// proposal N(shift, I)^d and reweighting each failing sample with
/// w = exp(-shift . z + |shift|^2 / 2).  `fails_block(block, first,
/// fails)` classifies a whole block of proposal draws at once, writing a
/// nonzero byte to `fails[lane]` for each failing lane (`first` is the
/// trial index of lane 0; the buffer arrives zeroed).  Trial k draws from
/// master.fork(k) and the weight reduction runs serially in trial order,
/// so the estimate equals a per-trial loop over the same streams (the
/// reference in tests/mc_oracle.cpp) bit for bit, for any thread count.
/// Blocks hold up to kMcBlockSize lanes and never span an executor
/// chunk.
ImportanceEstimate importance_sample_blocked(
    std::uint64_t seed, std::size_t trials, const std::vector<double>& shift,
    const std::function<void(const GaussianBlock& block, std::size_t first,
                             std::uint8_t* fails)>& fails_block,
    ParallelExecutor* executor = nullptr);

/// Finds the failure design point for a smooth performance function
/// g(z) (g >= 0 is a pass, g < 0 a failure, g(0) > 0 required): walks
/// along the steepest-descent direction of g at the origin until the
/// first zero crossing, then polishes the radius by bisection.  Returns
/// an empty vector when no failure exists within `max_radius` sigmas.
std::vector<double> design_point_on_gradient(
    const std::function<double(const std::vector<double>&)>& g,
    std::size_t dim, double max_radius = 12.0);

}  // namespace sttram
