// Width-generic Gaussian-fill value tails (stats/batch.cpp dispatches on
// active_simd_isa()).
//
// The Marsaglia polar sampler splits into three stages: (1) the rejection
// loop, which consumes the rng stream and must stay scalar per lane to
// preserve draw order; (2) log(s), a transcendental that stays a scalar
// libm call per lane (vector math libs are not correctly rounded); and
// (3) the value tail n = u * sqrt(-2*log(s)/s), which is pure correctly
// rounded arithmetic and vectorizes bit-identically.  These templates
// implement stage 3 — given staged u, s and t = log(s) rows — plus the
// fused importance-sampling axis fill z = shift + n, dot += shift * z.
// Both keep the association of sample_standard_normal's return
// expression `u * std::sqrt(-2.0 * std::log(s) / s)`.
//
// Instantiated at W = 1 in batch.cpp (the `scalar` target) and at
// W = 2/4/8 in batch_w{2,4,8}.cpp, compiled with the matching -m flags
// (see DESIGN.md §15).
#pragma once

#include <cstddef>

#include "sttram/common/simd.hpp"

namespace sttram {

/// n[i] = u[i] * sqrt(-2 * t[i] / s[i]) with t = log(s) staged upstream.
using PolarTailFn = void (*)(const double* u, const double* s,
                             const double* t, std::size_t n, double* out);

/// Fused shifted-axis fill: z[i] = shift + n[i]; dot[i] += shift * z[i].
using GaussianAxisFn = void (*)(const double* u, const double* s,
                                const double* t, double shift,
                                std::size_t n, double* z_row, double* dot);

struct StatsSimdKernels {
  PolarTailFn polar_tail = nullptr;
  GaussianAxisFn gaussian_axis = nullptr;
};

/// nullptr when the width is not compiled in on this target.
const StatsSimdKernels* stats_simd_kernels_w2();
const StatsSimdKernels* stats_simd_kernels_w4();
const StatsSimdKernels* stats_simd_kernels_w8();

namespace simd_detail {

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
