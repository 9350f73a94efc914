// Replays of the batched yield pipeline through the library's public
// calls, used by the traced runs of yield_1mbit and campaign_suite.
#pragma once

#include <cstddef>

#include "harness.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sim/yield.hpp"

namespace e2e {

/// The device model run_yield_experiment samples from: the paper's
/// nominal device scaled by the sampled die factor.
sttram::MtjVariationModel yield_variation(const sttram::YieldConfig& cfg);

/// The column tables plus YieldBatchKernel::build, staged exactly as
/// run_yield_experiment stages them.
sttram::YieldBatchKernel build_yield_kernel(
    const sttram::YieldConfig& cfg, const sttram::MtjVariationModel& model);

/// Sample -> margin kernel -> count over the whole array, one span per
/// public call; returns the nondestructive scheme's failure count.
std::size_t replay_yield(const sttram::YieldConfig& cfg, Tracer& tracer);

}  // namespace e2e
