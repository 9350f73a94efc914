// Width-generic batched sense-margin kernels.
//
// Each kernel is written once as `template <int W>` over Vec<W> lanes.
// margins_batch.cpp instantiates W = 1 (the `scalar` target); the
// per-width TUs (margins_batch_w2/w4/w8.cpp), the only files compiled
// with wider -m flags, instantiate the vector widths, whose remainder
// lanes run the same body at W = 1.  Everything here is lane-parallel
// IEEE arithmetic (+, -, *, /, compare/select/abs, min/max in
// scalar-predicate form): the kernels form each read's bit-line voltages
// in the association of the margins.cpp classes and take SM0/SM1 from
// the classes' own margin bodies (scheme.hpp); the only libm calls (exp
// in the tail kernel) run scalar per lane, so every width reproduces
// the class-based schemes bitwise.
//
// The yield kernel's outputs are SoA (YieldMarginsSoA: one row per
// scheme/bit, contiguous across cells), so the vector path retires each
// of its 8 output vectors with one contiguous W-wide store — no
// cross-lane shuffles anywhere in the hot loop.
#pragma once

#include <cmath>
#include <cstddef>

#include "sttram/common/simd.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/stats/batch.hpp"

namespace sttram {

/// Per-ISA kernel entry points this library exports.  A getter returns
/// nullptr when the width is not compiled for the target architecture.
struct SenseSimdKernels {
  YieldSolveFn yield_solve = nullptr;
  TailMarginsFn tail_margins = nullptr;
};

const SenseSimdKernels* sense_simd_kernels_w2();  // SSE2 / NEON baseline
const SenseSimdKernels* sense_simd_kernels_w4();  // AVX2
const SenseSimdKernels* sense_simd_kernels_w8();  // AVX-512 F+DQ

namespace simd_detail {

/// W-lane yield solve.  Strips run where the next W columns are
/// contiguous in the per-column tables; the column wrap (at most once per
/// `cols` lanes) and the block tail run the same body at W = 1.  The
/// window bounds accumulate per vector slot and fold at the end — exact,
/// because max/min over positive finite voltages is order-independent.
template <int W>
void yield_solve_simd(const YieldKernelView& k, const VariationBlock& block,
                      std::size_t first_cell, double* const* out_rows,
                      double* max_low, double* min_high) {
  using T = YieldKernelTables;
  // L cells from `lane`, whose columns c .. c + L - 1 are contiguous.
  const auto strip = [&]<int L>(std::size_t lane, std::size_t c,
                                simd::Vec<L>& ml, simd::Vec<L>& mh) {
    using V = simd::Vec<L>;
    const V vrl = V::load(block.r_low0 + lane);
    const V vrh = V::load(block.r_high0 + lane);
    const V vdl = V::load(block.droop_low + lane);
    const V vdh = V::load(block.droop_high + lane);
    const V r_t = V::load(block.r_access + lane);
    const V vi_max = V::splat(k.i_max);
    // Scheme s's margins go to output rows 2s (SM0) and 2s + 1 (SM1).
    const auto put = [&](SchemeId s, const MarginPair<V>& m) {
      m.sm0.store(out_rows[2 * scheme_index(s)] + lane);
      m.sm1.store(out_rows[2 * scheme_index(s) + 1] + lane);
    };
    // Second-read (I2 = I_max) path resistances and bit-line voltages —
    // shared by all four schemes.
    const V r_p2 = vrl - vdl * V::splat(k.frac2);
    const V r_ap2 = vrh - vdh * V::splat(k.frac2);
    const V v_p2 = vi_max * (r_p2 + r_t);
    const V v_ap2 = vi_max * (r_ap2 + r_t);
    ml = vmax(ml, v_p2);
    mh = vmin(mh, v_ap2);
    // Conventional sensing against the shared V_REF (+ column error).
    put(SchemeId::kConventional,
        conventional_margins(v_p2, v_ap2,
                             V::load(k.column[T::kVRefConv] + c)));
    // Reference-cell sensing: the column pair sees the same per-cell
    // access device as the data read.
    put(SchemeId::kReferenceCell,
        reference_cell_margins(
            v_p2, v_ap2, vi_max * (V::load(k.column[T::kRRefP2] + c) + r_t),
            vi_max * (V::load(k.column[T::kRRefAp2] + c) + r_t)));
    // A self-reference first read at the column's I1: I1 (R0 - dR f1 + R_T).
    const auto first_read = [&](const double* i1, const double* frac1, V r0,
                                V droop) {
      return V::load(i1 + c) * ((r0 - droop * V::load(frac1 + c)) + r_t);
    };
    const double* const i1_d = k.column[T::kI1D];
    const double* const frac1_d = k.column[T::kFrac1D];
    const double* const i1_n = k.column[T::kI1N];
    const double* const frac1_n = k.column[T::kFrac1N];
    // Destructive self-reference: the erased-cell second read IS v_p2.
    put(SchemeId::kDestructive,
        destructive_margins(first_read(i1_d, frac1_d, vrl, vdl),
                            first_read(i1_d, frac1_d, vrh, vdh), v_p2));
    // Nondestructive self-reference: first read vs divided second read.
    put(SchemeId::kNondestructive,
        nondestructive_margins(first_read(i1_n, frac1_n, vrl, vdl),
                               first_read(i1_n, frac1_n, vrh, vdh), v_p2,
                               v_ap2, V::load(k.column[T::kAlphaEff] + c)));
  };

  simd::Vec<W> vml = simd::Vec<W>::splat(*max_low);
  simd::Vec<W> vmh = simd::Vec<W>::splat(*min_high);
  simd::Vec<1> ml = simd::Vec<1>::splat(*max_low);
  simd::Vec<1> mh = simd::Vec<1>::splat(*min_high);
  std::size_t c = first_cell % k.cols;
  std::size_t lane = 0;
  while (lane < block.size) {
    // The cells up to the block end or the column wrap, whichever is first.
    const std::size_t to_end = block.size - lane;
    const std::size_t to_wrap = k.cols - c;
    const std::size_t run = to_wrap < to_end ? to_wrap : to_end;
    std::size_t i = 0;
    for (; i + W <= run; i += W) strip(lane + i, c + i, vml, vmh);
    if constexpr (W > 1) {
      for (; i < run; ++i) strip(lane + i, c + i, ml, mh);
    }
    lane += run;
    c += run;
    if (c == k.cols) c = 0;
  }
  double lo = ml[0];
  double hi = mh[0];
  // std::max / std::min, written out: a wide TU calls no std template.
  for (int i = 0; i < W; ++i) {
    lo = lo < vml[i] ? vml[i] : lo;
    hi = vmh[i] < hi ? vmh[i] : hi;
  }
  *max_low = lo;
  *min_high = hi;
}

/// W-lane tail margins-min: MtjParams::scaled(common, tmr) on the nominal
/// device unfolded, then the nondestructive scheme's two margins.  The
/// three exponentials per lane stay scalar libm calls (vector math
/// libraries are not bit-identical to libm); the surrounding arithmetic
/// runs on vectors.
template <int W>
void tail_margins_simd(const TailKernelTables& k, const double* z,
                       std::size_t stride, std::size_t n, double* out) {
  const double* const z0 = z;
  const double* const z1 = z + stride;
  const double* const z2 = z + 2 * stride;
  const double* const z3 = z + 3 * stride;
  const double* const z4 = z + 4 * stride;
  simd::for_each_strip<W>(n, [&]<int L>(std::size_t lane, simd::Lanes<L>) {
    using V = simd::Vec<L>;
    const V one = V::splat(1.0);
    const V i_max = V::splat(k.i_max);
    const V r_low0 = V::splat(k.r_low0);
    const V droop_low = V::splat(k.droop_low);
    // exp arguments are vector muls (bit-identical to the scalar mul);
    // the exp itself is libm per lane.
    const V arg_c = V::splat(k.sigma_common) * V::load(z0 + lane);
    const V arg_t = V::splat(k.sigma_tmr) * V::load(z1 + lane);
    const V arg_a = V::splat(k.sigma_access) * V::load(z2 + lane);
    alignas(64) double e_c[L], e_t[L], e_a[L];
    for (int i = 0; i < L; ++i) e_c[i] = std::exp(arg_c[i]);
    for (int i = 0; i < L; ++i) e_t[i] = std::exp(arg_t[i]);
    for (int i = 0; i < L; ++i) e_a[i] = std::exp(arg_a[i]);
    const V common = V::load(e_c);
    const V tmr = V::load(e_t);
    const V excess0 = V::splat(k.excess0_base) * tmr;
    const V excess_droop = V::splat(k.excess_droop_base) * tmr;
    const V r_l0 = r_low0 * common;
    const V r_h0 = (r_low0 + excess0) * common;
    const V d_l = droop_low * common;
    const V d_h = (droop_low + excess_droop) * common;
    const V r_t = V::splat(k.r_access_nominal) * V::load(e_a);
    const V beta_eff =
        V::splat(k.beta) * (one + V::splat(k.sigma_beta) * V::load(z3 + lane));
    const V alpha_eff = V::splat(k.alpha) *
                        (one + V::splat(k.sigma_alpha) * V::load(z4 + lane));
    const V i1 = i_max / beta_eff;
    const V frac1 = vmin(vabs(i1) / V::splat(k.idr), V::splat(1.5));
    const V r_p1 = r_l0 - d_l * frac1;
    const V r_ap1 = r_h0 - d_h * frac1;
    const V r_p2 = r_l0 - d_l * V::splat(k.frac2);
    const V r_ap2 = r_h0 - d_h * V::splat(k.frac2);
    const MarginPair<V> m = nondestructive_margins(
        i1 * (r_p1 + r_t), i1 * (r_ap1 + r_t), i_max * (r_p2 + r_t),
        i_max * (r_ap2 + r_t), alpha_eff);
    vmin(m.sm0, m.sm1).store(out + lane);
  });
}

}  // namespace simd_detail
}  // namespace sttram
