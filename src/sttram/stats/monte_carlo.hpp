// Deterministic Monte-Carlo driver over scalar trials.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "sttram/common/parallel.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {

/// Runs `trials` independent trials of `trial_fn`, trial i drawing from
/// its own stream master(seed).fork(i), and reduces the results into
/// RunningStats.  Trial i sees the same stream however many trials run,
/// so extending a run keeps earlier samples identical.  With `executor`
/// set, chunks of trials run concurrently (`trial_fn` must then be safe
/// to call concurrently); the reduction always runs serially in trial
/// order, so the result is bit-identical for any thread count.
RunningStats monte_carlo_stats(
    std::uint64_t seed, std::size_t trials,
    const std::function<double(Xoshiro256&)>& trial_fn,
    ParallelExecutor* executor = nullptr);

}  // namespace sttram
