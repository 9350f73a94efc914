// Width-generic Gaussian staging and value tails (stats/batch.cpp
// dispatches on active_simd_isa()).
//
// The Marsaglia polar sampler splits into three stages, each bit-exact
// at every width:
//   (1) the rejection loops.  stage_polar_simd forks W xoshiro256**
//       streams at once and rejects under per-lane masks: every pass
//       draws a (u, v) pair in every lane, and a mask picks the lanes
//       whose pair has 0 < s < 1 and the slot each of them fills, so each
//       lane consumes its own stream in exactly the scalar order.  The
//       RNG is integer shifts, xors, adds and multiplies (stats/rng.hpp,
//       the same body as the scalar class), exact in any lane; u, v and
//       s are correctly rounded arithmetic.
//   (2) log(s), a transcendental that stays a scalar libm call per lane
//       (vector math libs are not correctly rounded);
//   (3) the value tail n = u * sqrt(-2*log(s)/s), correctly rounded
//       arithmetic that vectorizes bit-identically.
// Stage 3 keeps the association of sample_standard_normal's return
// expression `u * std::sqrt(-2.0 * std::log(s) / s)`; polar_tail_simd
// and the fused importance-sampling axis fill (z = shift + n,
// dot += shift * z) implement it over staged rows.
//
// The Bernoulli counter (count_hits) is integer lane code only: it forks
// W streams at once and counts each lane's hits with a signed 64-bit
// compare against the exact threshold of batch.hpp's
// bernoulli_threshold, so every width gives the scalar counts.
//
// Instantiated at W = 1 in batch.cpp (the `scalar` target) and at
// W = 2/4/8 in batch_w{2,4,8}.cpp, compiled with the matching -m flags
// (see DESIGN.md §15).  The value tails run their remainder lanes through
// the same body at W = 1 (simd::for_each_strip); the staging and the
// counter run a batch's last, partial strip at W with the extra lanes
// masked off or dropped.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "sttram/common/simd.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {

/// stage_polar_rows (batch.hpp) with the dropped draw's `s_safe`
/// (safe_polar_s in batch.cpp) resolved once per call.
using StagePolarFn = void (*)(const Xoshiro256& master, std::size_t first,
                              std::size_t count, const PolarPlan& plan,
                              double s_safe, double* u_rows, double* s_rows,
                              std::size_t stride);

/// n[i] = u[i] * sqrt(-2 * t[i] / s[i]) with t = log(s) staged upstream.
using PolarTailFn = void (*)(const double* u, const double* s,
                             const double* t, std::size_t n, double* out);

/// Fused shifted-axis fill: z[i] = shift + n[i]; dot[i] += shift * z[i].
using GaussianAxisFn = void (*)(const double* u, const double* s,
                                const double* t, double shift,
                                std::size_t n, double* z_row, double* dot);

/// count_bernoulli_hits (batch.hpp).
using CountHitsFn = void (*)(const Xoshiro256& master,
                             const std::uint64_t* ids, std::size_t n,
                             std::size_t draws, std::uint64_t threshold,
                             std::uint32_t* counts);

struct StatsSimdKernels {
  StagePolarFn stage_polar = nullptr;
  PolarTailFn polar_tail = nullptr;
  GaussianAxisFn gaussian_axis = nullptr;
  CountHitsFn count_hits = nullptr;
};

/// nullptr when the width is not compiled in on this target.
const StatsSimdKernels* stats_simd_kernels_w2();
const StatsSimdKernels* stats_simd_kernels_w4();
const StatsSimdKernels* stats_simd_kernels_w8();

namespace simd_detail {

/// Throws the NumericError sample_truncated_normal throws when its window
/// rejects kTruncatedNormalMaxTries draws.  Defined in batch.cpp: a throw
/// here would instantiate std::string and the error classes in the
/// per-width TUs, where the linker could keep their AVX-512 copies.
[[noreturn]] void throw_truncated_normal_hopeless();

/// W xoshiro256** streams stepped together; lane i starts as
/// master.fork(streams[i]).
template <int W>
struct LaneStreams {
  simd::U64<W> s[4];

  LaneStreams(const Xoshiro256& master, simd::U64<W> streams) {
    rng_detail::xoshiro256_seed(master.fork_seed(streams), s);
  }

  /// 2 * Xoshiro256::next_double() - 1 in every lane: one polar
  /// coordinate, with sample_standard_normal's rounding.
  simd::Vec<W> next_coordinate() {
    using V = simd::Vec<W>;
    const V x =
        simd::u64_to_double<W>(rng_detail::xoshiro256_next(s) >> 11) *
        V::splat(0x1.0p-53);
    return V::splat(2.0) * x - V::splat(1.0);
  }

  /// Lanes in `m` take `other`'s state; the others keep their own.
  void take(typename simd::Vec<W>::M m, const LaneStreams& other) {
    for (int i = 0; i < 4; ++i) s[i] = m ? other.s[i] : s[i];
  }
};

/// Stores the first `lanes` lanes of `x` at p.
template <int W>
void store_lanes(simd::Vec<W> x, std::size_t lanes, double* p) {
  if (W == 1 || lanes == W) {
    x.store(p);
  } else {
    for (std::size_t i = 0; i < lanes; ++i) p[i] = x[static_cast<int>(i)];
  }
}

/// Slots one rejection loop fills in registers before it exits.  One
/// lane exits as soon as it accepts, so W = 1 fills one slot per loop.
template <int W>
inline constexpr std::size_t kSlotsPerPass = W == 1 ? 1 : 4;

/// Stages one strip of W lanes (see stage_polar_simd).  A lane's draws
/// are a row of slots: plan.pairs polar pairs, with the dropped
/// truncated normal as one more slot at plan.drop_at.  One rejection
/// loop fills up to kSlotsPerPass slots: every pass draws a (u, v) pair
/// in every lane, and a lane keeps it for its current slot when
/// 0 < s < 1 (and, in the dropped slot, when the normal lands in the
/// window), then moves on to its next slot.  So a lane rejects and draws
/// again exactly where the scalar sampler would, and consumes its own
/// stream in the scalar order.  A lane that has filled the loop's slots
/// keeps drawing until every lane has; those draws fill nothing, and
/// when more slots follow, the lane's stream is restored to where it
/// stood after its last kept pair.  One loop per group of slots (not
/// per slot) keeps the data-dependent exits, and their mispredictions,
/// few.
///
/// In the dropped slot a pair with s > s_safe lands inside the window
/// whatever its u (safe_polar_s in batch.cpp), so the value tail runs,
/// with the scalar sampler's expression, only in passes where some lane
/// sits in that slot with s <= s_safe.
///
/// Only the first `lanes` lanes are staged and stored; the others (a
/// block's last, partial strip) start past their last slot, so they
/// never fill, test or hold the loop.
template <int W>
void stage_strip(LaneStreams<W> rng, const PolarPlan& plan, double s_safe,
                 std::size_t lanes, double* u_rows, double* s_rows,
                 std::size_t stride) {
  using V = simd::Vec<W>;
  const std::size_t drop =
      plan.drop_at < plan.pairs ? plan.drop_at : SIZE_MAX;
  const std::size_t slots = plan.pairs + (drop != SIZE_MAX ? 1 : 0);
  const TruncatedNormal& d = plan.dropped;
  constexpr std::size_t kPass = kSlotsPerPass<W>;
  const auto live = simd::u64_to_double<W>(simd::iota_u64<W>(0)) <
                    V::splat(static_cast<double>(lanes));
  for (std::size_t base = 0; base < slots; base += kPass) {
    const std::size_t end = base + kPass < slots ? base + kPass : slots;
    const bool more = end < slots;
    const bool drops = drop >= base && drop < end;
    V u_out[kPass];
    V s_out[kPass];
    for (std::size_t j = 0; j < kPass; ++j) {
      u_out[j] = V::splat(0.0);
      s_out[j] = V::splat(1.0);
    }
    V at[kPass];
    for (std::size_t j = 0; j < kPass; ++j) {
      at[j] = V::splat(static_cast<double>(base + j));
    }
    const V last = V::splat(static_cast<double>(end - 1));
    const V drop_at = V::splat(static_cast<double>(drop));
    LaneStreams<W> after = rng;  // each lane's stream past its last slot
    V slot = V::select(live, at[0], V::splat(static_cast<double>(end)));
    V failures = V::splat(0.0);
    do {
      const V u = rng.next_coordinate();
      const V v = rng.next_coordinate();
      const V s = u * u + v * v;
      auto keep = (V::splat(0.0) < s) & (s < V::splat(1.0));
      if (drops) {
        const auto test = keep & (slot == drop_at) & (s <= V::splat(s_safe));
        if (simd::mask_any<W>(test)) {
          alignas(64) double t_lanes[W];
          s.store(t_lanes);
          for (double& x : t_lanes) x = std::log(x);  // scalar libm
          const V n = u * vsqrt(V::splat(-2.0) * V::load(t_lanes) / s);
          const V x = V::splat(d.mean) + V::splat(d.stddev) * n;
          const auto reject =
              test & ~((V::splat(d.lo) <= x) & (x <= V::splat(d.hi)));
          failures = V::select(reject, failures + V::splat(1.0), failures);
          if (simd::mask_any<W>(
                  V::splat(kTruncatedNormalMaxTries) <= failures)) {
            throw_truncated_normal_hopeless();
          }
          keep &= ~reject;
        }
      }
      // The slot each lane fills in this pass, -1 where it rejected.
      const V filled = V::select(keep, slot, V::splat(-1.0));
      for (std::size_t j = 0; j < kPass; ++j) {
        u_out[j] = V::select(filled == at[j], u, u_out[j]);
        s_out[j] = V::select(filled == at[j], s, s_out[j]);
      }
      // Lanes draw on past their last slot, so each copies its stream at
      // the pass that fills it.  W = 1 stops at that pass: its stream
      // already stands there.
      if constexpr (W > 1) {
        if (more) after.take(filled == last, rng);
      }
      slot = V::select(keep, slot + V::splat(1.0), slot);
    } while (simd::mask_any<W>(slot <= last));
    for (std::size_t q = base; q < end; ++q) {
      if (q == drop) continue;
      const std::size_t row = q < drop ? q : q - 1;
      store_lanes(u_out[q - base], lanes, u_rows + row * stride);
      store_lanes(s_out[q - base], lanes, s_rows + row * stride);
    }
    if constexpr (W > 1) rng = after;
  }
}

/// Stages lanes [0, count) in W-lane strips, the last one partial, so
/// a wider TU never instantiates the W = 1 staging: its inline helpers
/// are shared symbols, and the linker could keep this TU's copies (under
/// -mavx512f, u64_to_double<1> is an AVX-512 instruction) for every
/// caller.  Each strip's streams are forked before the strip ahead of
/// it is staged, so the fork's multiply chain runs while the previous
/// strip's rejection loop resolves.
template <int W>
void stage_polar_simd(const Xoshiro256& master, std::size_t first,
                      std::size_t count, const PolarPlan& plan, double s_safe,
                      double* u_rows, double* s_rows, std::size_t stride) {
  if (count == 0) return;
  LaneStreams<W> next(master, simd::iota_u64<W>(first));
  for (std::size_t k = 0; k < count; k += W) {
    const LaneStreams<W> rng = next;
    if (k + W < count) {
      next = LaneStreams<W>(master, simd::iota_u64<W>(first + k + W));
    }
    const std::size_t lanes = count - k < W ? count - k : W;
    stage_strip<W>(rng, plan, s_safe, lanes, u_rows + k, s_rows + k, stride);
  }
}

/// Hits among each lane's next `draws` trials of the streams in `s`: a
/// trial hits when (x >> 11) < threshold.  x >> 11 and the threshold
/// (at most 2^53) both fit a signed lane, where every ISA has the
/// compare; a set lane is -1 (0 / 1 at W = 1), so `& 1` counts it.
template <int W>
simd::U64<W> count_hits(simd::U64<W>* s, std::size_t draws,
                        std::uint64_t threshold) {
  using M = typename simd::Vec<W>::M;
  const M t = M{} + static_cast<long long>(threshold);
  M hits{};
  for (std::size_t k = 0; k < draws; ++k) {
    const M x = (M)(rng_detail::xoshiro256_next(s) >> 11);
    hits += (x < t) & 1;
  }
  return (simd::U64<W>)hits;
}

/// count_bernoulli_hits over ids[0, n) in W-lane strips.  The last,
/// partial strip runs at W too (its spare lanes repeat the strip's first
/// id and are not stored), so a wider TU never instantiates W = 1.
template <int W>
void count_hits_simd(const Xoshiro256& master, const std::uint64_t* ids,
                     std::size_t n, std::size_t draws,
                     std::uint64_t threshold, std::uint32_t* counts) {
  for (std::size_t k = 0; k < n; k += W) {
    const std::size_t lanes = n - k < W ? n - k : W;
    simd::U64<W> streams;
    if constexpr (W == 1) {
      streams = ids[k];
    } else {
      for (std::size_t i = 0; i < W; ++i) {
        streams[i] = ids[k + (i < lanes ? i : 0)];
      }
    }
    LaneStreams<W> rng(master, streams);
    const simd::U64<W> hits = count_hits<W>(rng.s, draws, threshold);
    if constexpr (W == 1) {
      counts[k] = static_cast<std::uint32_t>(hits);
    } else {
      for (std::size_t i = 0; i < lanes; ++i) {
        counts[k + i] = static_cast<std::uint32_t>(hits[i]);
      }
    }
  }
}

template <int W>
void polar_tail_simd(const double* u, const double* s, const double* t,
                     std::size_t n, double* out) {
  simd::for_each_strip<W>(n, [&]<int L>(std::size_t k, simd::Lanes<L>) {
    using V = simd::Vec<L>;
    const V vn =
        V::load(u + k) * vsqrt(V::splat(-2.0) * V::load(t + k) / V::load(s + k));
    vn.store(out + k);
  });
}

template <int W>
void gaussian_axis_simd(const double* u, const double* s, const double* t,
                        double shift, std::size_t n, double* z_row,
                        double* dot) {
  simd::for_each_strip<W>(n, [&]<int L>(std::size_t k, simd::Lanes<L>) {
    using V = simd::Vec<L>;
    const V vshift = V::splat(shift);
    const V vn =
        V::load(u + k) * vsqrt(V::splat(-2.0) * V::load(t + k) / V::load(s + k));
    const V z = vshift + vn;
    z.store(z_row + k);
    (V::load(dot + k) + vshift * z).store(dot + k);
  });
}

}  // namespace simd_detail
}  // namespace sttram
