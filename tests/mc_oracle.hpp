// Differential oracles for the sense-margin closed forms and the batched
// Monte-Carlo kernels.
//
// The library writes each scheme's SM0/SM1 once (sense/scheme.hpp): the
// classes of sense/margins.hpp run that body on Volts and the batched
// SoA kernels run it on SIMD lanes.  This file writes the four closed
// forms a second time, in the paper's notation, from the bit-line
// voltages a RiModel and an access model give, and its drivers recompute
// the yield and tail experiments the slow, obvious way: per cell / per
// trial, through MemoryArray's per-cell draws, these written-out forms
// and importance_sample's per-trial predicate.  They share none of the
// library's margin or kernel arithmetic, so the classes and every ISA
// (the `scalar` W = 1 instantiation included) are compared against an
// independent computation of the same doubles.
//
// The per-trial Monte-Carlo estimators the library has no run for (the
// scalar importance sampler, the Wilson-interval probability estimate)
// live here too, as the references the batched drivers and the thread
// pool are tested against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/common/parallel.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram/stats/importance.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::oracle {

// The four schemes' margins, each from the arguments of its class's
// constructor and margins() call.  V_BL,s = I (R(s, I) + R_T(I)) is the
// bit-line voltage of state s at read current I.

/// SM0 = V_REF - V_BL,L and SM1 = V_BL,H - V_REF at I = i_read.
SenseMargins conventional(const RiModel& model,
                          const AccessDeviceModel& access, Ampere i_read,
                          Volt v_ref);

/// Conventional sensing against V_REF = (V_BL,P(ref_p) + V_BL,AP(ref_ap))
/// / 2, every read at i_read through the data cell's access device.
SenseMargins reference_cell(const RiModel& data,
                            const AccessDeviceModel& access,
                            const RiModel& ref_p, const RiModel& ref_ap,
                            Ampere i_read);

/// I2 = I_max, I1 = I2 / (beta (1 + dbeta)); the erased cell's second
/// read V_BL2 = I2 (R_L(I2) + R_T(I2) + dR_T):
/// SM0 = V_BL2 - V_BL1,L and SM1 = V_BL1,H - V_BL2.
SenseMargins destructive(const RiModel& model,
                         const AccessDeviceModel& access,
                         const SelfRefConfig& config, double beta,
                         const SchemeMismatch& mm = {});

/// I1, I2 as above, V_BL2,s = I2 (R(s, I2) + R_T(I2) + dR_T) and
/// alpha' = alpha (1 + dalpha):
/// SM0 = alpha' V_BL2,L - V_BL1,L and SM1 = V_BL1,H - alpha' V_BL2,H.
SenseMargins nondestructive(const RiModel& model,
                            const AccessDeviceModel& access,
                            const SelfRefConfig& config, double beta,
                            const SchemeMismatch& mm = {});

/// Width of the shared-reference window Max(V_BL,L) < V_REF < Min(V_BL,H)
/// over every cell of `array` at read current `i` (Eq. (2)): positive iff
/// one reference reads every cell.
Volt shared_reference_window(const MemoryArray& array, Ampere i);

/// run_yield_experiment, per cell: the written-out forms above for every
/// cell of a MemoryArray, recorded serially in row-major order.
YieldResult run_yield(const YieldConfig& config,
                      ParallelExecutor* executor = nullptr);

/// importance_sample_blocked, per trial: trial k draws z from the shifted
/// proposal N(shift, I)^d on master.fork(k), one sample_standard_normal
/// per coordinate, and a failing trial weighs
/// w = exp(-shift . z + |shift|^2 / 2).  With `executor` set, trial chunks
/// run concurrently and the weights reduce serially in trial order, so
/// the estimate is bit-identical for any thread count; `fails` must then
/// be safe to call concurrently.
ImportanceEstimate importance_sample(
    std::uint64_t seed, std::size_t trials, const std::vector<double>& shift,
    const std::function<bool(const std::vector<double>&)>& fails,
    ParallelExecutor* executor = nullptr);

/// A Bernoulli probability with its Wilson 95% confidence interval.
struct ProbabilityEstimate {
  std::size_t trials = 0;
  std::size_t hits = 0;
  double p = 0.0;        ///< point estimate hits/trials
  double ci_lo = 0.0;    ///< Wilson 95% lower bound
  double ci_hi = 0.0;    ///< Wilson 95% upper bound
};

/// Wilson score interval for `hits` successes in `trials` Bernoulli draws.
ProbabilityEstimate wilson_interval(std::size_t hits, std::size_t trials,
                                    double z = 1.959963984540054);

/// P(predicate) over `trials` trials, trial i drawing from
/// master(seed).fork(i); hit counts sum exactly across executor chunks.
ProbabilityEstimate estimate_probability(
    std::uint64_t seed, std::size_t trials,
    const std::function<bool(Xoshiro256&)>& predicate,
    ParallelExecutor* executor = nullptr);

/// estimate_margin_tail, per trial: importance_sample over the written-out
/// nondestructive margin instead of the batched tail kernel.
TailEstimate estimate_tail(const TailConfig& config, std::uint64_t seed,
                           std::size_t trials,
                           ParallelExecutor* executor = nullptr);

}  // namespace sttram::oracle
