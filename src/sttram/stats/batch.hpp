// Structure-of-arrays blocks for batched Monte-Carlo trial kernels.
//
// The scalar MC paths draw one trial's variation vector, solve it, and
// move on — every solve walks a fresh set of heap-allocated scheme
// objects and the compiler can't vectorize across trials.  These blocks
// re-stage the same work as: sample a block of trials into SoA arrays,
// run a closed-form kernel over all lanes (straight-line arithmetic on
// contiguous doubles), reduce.  A block of 64 trials keeps every array
// of this header inside L1, and every row starts on a 64-byte boundary
// so the SIMD kernels (common/simd.hpp) stream it with aligned loads.
//
// Bit-identity contract: a lane's samples come from exactly the stream
// the scalar path would fork for that trial index (`master.fork(first +
// lane)`), drawn in exactly the scalar draw order — so the SoA arrays
// hold the *same doubles* the scalar path consumed, and any batch
// split of [0, trials) produces identical values lane by lane.  The
// staging (stage_polar_rows) forks W streams at once and runs the polar
// rejection under per-lane masks on the active SIMD ISA: the RNG is
// integer arithmetic, exact at every width, and each lane keeps exactly
// the draws its scalar sampler keeps.  Only the libm calls (log, exp)
// stay scalar per lane (batch_simd.hpp).
//
// Bernoulli counts (count_bernoulli_hits) follow the same contract with
// no floating point at all: a trial `next_double() < p` is the integer
// compare `(x >> 11) < bernoulli_threshold(p)` on the draw's bits, so a
// lane counts exactly the hits its scalar stream would.
//
// (Sampling *device* variation into a VariationBlock lives in
// device/variation.hpp — the distribution parameters are the device
// layer's, and stats must not depend on device.)
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sttram/common/simd.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// Default trial-block size: 64 lanes x ~6 SoA arrays of doubles = 3 kB,
/// comfortably L1-resident alongside the kernel's per-column tables.
inline constexpr std::size_t kMcBlockSize = 64;

/// One block of sampled per-cell device variation, SoA across lanes.
/// Field order mirrors what the margin kernels consume: the four linear
/// R-I law parameters plus the access-device resistance.
struct VariationBlock {
  std::size_t size = 0;  ///< valid lanes (<= kMcBlockSize)
  alignas(64) std::array<double, kMcBlockSize> r_low0;
  alignas(64) std::array<double, kMcBlockSize> r_high0;
  alignas(64) std::array<double, kMcBlockSize> droop_low;
  alignas(64) std::array<double, kMcBlockSize> droop_high;
  alignas(64) std::array<double, kMcBlockSize> r_access;
};

/// One block of shifted standard-normal draws for importance sampling,
/// dimension-major (`z[d * capacity + lane]`) so a kernel sweeping one
/// coordinate across all lanes reads contiguously.  `dot[lane]` carries
/// the likelihood-ratio accumulator `shift . z` the weight needs.
struct GaussianBlock {
  std::size_t dim = 0;
  std::size_t size = 0;        ///< valid lanes
  std::size_t capacity = 0;    ///< lane stride of `z` (multiple of 8)
  aligned_vector<double> z;    ///< dim x capacity, dimension-major
  aligned_vector<double> dot;  ///< shift . z per lane

  /// Rounds the lane stride up to a multiple of 8 so every axis row
  /// starts 64-byte aligned.
  void reset(std::size_t new_dim, std::size_t new_capacity) {
    dim = new_dim;
    capacity = (new_capacity + 7) / 8 * 8;
    size = 0;
    z.assign(dim * capacity, 0.0);
    dot.assign(capacity, 0.0);
  }

  /// Pointer to coordinate `d` of lane 0.
  [[nodiscard]] const double* axis(std::size_t d) const {
    return z.data() + d * capacity;
  }
  [[nodiscard]] double* axis(std::size_t d) {
    return z.data() + d * capacity;
  }
};

/// What every lane draws from its stream, in order: `pairs` Marsaglia
/// polar pairs (sample_standard_normal's rejection loop, stopped before
/// its value), kept as (u, s) rows, plus one truncated normal drawn
/// before pair `drop_at` (none when drop_at >= pairs) whose value is
/// dropped: only the stream position after it matters.
struct PolarPlan {
  std::size_t pairs = 0;
  std::size_t drop_at = SIZE_MAX;
  /// The dropped draw, as sample_truncated_normal(stream, mean, stddev,
  /// lo, hi) makes it; needs stddev > 0 and lo < hi.
  TruncatedNormal dropped{};
};

/// Forks lanes [first, first + count) of `master` (lane i draws from
/// master.fork(first + i)) and stages each lane's `plan` in its stream's
/// scalar order: pair p of lane i lands in u_rows[p * stride + i] and
/// s_rows[p * stride + i].  Dispatches on active_simd_isa().
void stage_polar_rows(const Xoshiro256& master, std::size_t first,
                      std::size_t count, const PolarPlan& plan,
                      double* u_rows, double* s_rows, std::size_t stride);

/// Value tail over staged rows: out[i] = u[i] * sqrt(-2 log(s[i]) / s[i]),
/// bit-identical per lane to sample_standard_normal's return.  The
/// caller supplies t[i] = std::log(s[i]) (scalar libm stays outside the
/// vector kernel).  Dispatches on active_simd_isa().
void polar_tail(const double* u, const double* s, const double* t,
                std::size_t n, double* out);

/// Fills lanes [first, first + count) of the shifted proposal
/// N(shift, I)^dim into `out`, replicating importance_sample's per-trial
/// draw order exactly (fork trial stream; per dimension: draw, shift,
/// accumulate the dot product).  `out` must have been reset() with
/// capacity >= count and matching dim.
void fill_shifted_gaussian_block(const Xoshiro256& master,
                                 const std::vector<double>& shift,
                                 std::size_t first, std::size_t count,
                                 GaussianBlock& out);

/// The integer threshold of a Bernoulli(p) trial drawn as
/// Xoshiro256::next_double() < p, for p in [0, 1]: with x the draw's 64
/// bits, the trial hits exactly when (x >> 11) < bernoulli_threshold(p).
/// next_double() is m * 2^-53 for the integer m = x >> 11, and p * 2^53
/// is exact (a power-of-two scale, no overflow or underflow for p in
/// [0, 1]), so m * 2^-53 < p <=> m < p * 2^53 <=> m < ceil(p * 2^53).
/// ceil is exact too; p = 0 gives 0 (never) and p = 1 gives 2^53
/// (always).
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

/// counts[i] = how many of the first `draws` trials of master.fork(ids[i])
/// hit, a trial hitting when (next_u64() >> 11) < threshold (see
/// bernoulli_threshold).  Forks W streams at once and counts them in
/// lanes; dispatches on active_simd_isa().
void count_bernoulli_hits(const Xoshiro256& master, const std::uint64_t* ids,
                          std::size_t n, std::size_t draws,
                          std::uint64_t threshold, std::uint32_t* counts);

/// One lane of count_bernoulli_hits kept across calls: master.fork(id)'s
/// stream, counted `draws` trials at a time where the last count left
/// off.  It runs the same kernel at W = 1, so its first count equals the
/// batch's for that id.
class BernoulliStream {
 public:
  BernoulliStream(const Xoshiro256& master, std::uint64_t id);

  /// Hits among the next `draws` trials.
  [[nodiscard]] std::uint32_t count(std::size_t draws,
                                    std::uint64_t threshold);

 private:
  std::uint64_t s_[4];
};

}  // namespace sttram
