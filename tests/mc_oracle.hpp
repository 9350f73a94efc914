// Differential oracles for the batched Monte-Carlo kernels.
//
// The library runs yield and tail sampling only through the batched SoA
// kernels (one template body per closed form, dispatched per SIMD ISA).
// These drivers recompute the same experiments the slow, obvious way:
// per cell / per trial, through MemoryArray's per-cell draws, the
// class-based sense/margins.hpp schemes and importance_sample's
// per-trial predicate.  They share none of the kernels' arithmetic, so
// every ISA (the `scalar` W = 1 instantiation included) is compared
// against an independent computation of the same doubles.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sttram/common/parallel.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"

namespace sttram::oracle {

/// run_yield_experiment, per cell: fresh scheme objects for every cell of
/// a MemoryArray, recorded serially in row-major order.
YieldResult run_yield(const YieldConfig& config,
                      ParallelExecutor* executor = nullptr);

/// estimate_margin_tail, per trial: importance_sample over
/// nondestructive_margin_at instead of the batched tail kernel.
TailEstimate estimate_tail(const TailConfig& config, std::uint64_t seed,
                           std::size_t trials,
                           ParallelExecutor* executor = nullptr);

}  // namespace sttram::oracle
