// Width-generic Simmons Newton solve (ri_curve.cpp dispatches on
// active_simd_isa()).
//
// The kernel runs every lane through the Newton iteration of
// SimmonsRiModel::bias_voltage() — converged lanes keep computing but
// their v is frozen by an active-lane select, so each lane's update
// sequence (and therefore its result) is bit-identical to that loop.
// Zero-current lanes start inactive with v = 0, matching its early-out.
//
// Instantiated at W = 1 in ri_curve.cpp (the `scalar` target) and at
// W = 2/4/8 in ri_curve_w{2,4,8}.cpp, which are compiled with the
// matching -m flags (the build-wide -ffp-contract=off keeps
// f = g0*v*(1+u^2) - i from contracting into an FMA).
#pragma once

#include <cstddef>

#include "sttram/common/simd.hpp"

namespace sttram {

/// One Newton solve family: v such that (1/r0) * v * (1 + (v/vh)^2) = |i|.
using SimmonsNewtonFn = void (*)(double r0, double vh, const double* i_amps,
                                 std::size_t n, double* v_out);

struct DeviceSimdKernels {
  SimmonsNewtonFn simmons_newton = nullptr;
};

/// nullptr when the width is not compiled in on this target.
const DeviceSimdKernels* device_simd_kernels_w2();
const DeviceSimdKernels* device_simd_kernels_w4();
const DeviceSimdKernels* device_simd_kernels_w8();

namespace simd_detail {

/// Masked Newton: W lanes per strip, per-lane convergence masks.
template <int W>
void simmons_newton_simd(double r0, double vh, const double* i_amps,
                         std::size_t n, double* v_out) {
  const double g0 = 1.0 / r0;
  simd::for_each_strip<W>(n, [&]<int L>(std::size_t k, simd::Lanes<L>) {
    using V = simd::Vec<L>;
    using M = typename V::M;
    const V vg0 = V::splat(g0);
    const V one = V::splat(1.0);
    const V three = V::splat(3.0);
    const V zero = V::splat(0.0);
    const V eps = V::splat(1e-15);
    const V cur = vabs(V::load(i_amps + k));
    const M zero_cur = (cur == zero);
    M active = ~zero_cur;
    V v = V::select(zero_cur, zero, cur * V::splat(r0));
    for (int iter = 0; iter < 60 && simd::mask_any<L>(active); ++iter) {
      const V u = v / V::splat(vh);
      const V f = vg0 * v * (one + u * u) - cur;
      const V df = vg0 * (one + three * u * u);
      const V step = f / df;
      V v_new = v - step;
      v_new = V::select(v_new <= zero, V::splat(1e-15), v_new);
      const M conv = vabs(step) < eps * (one + vabs(v_new));
      v = V::select(active, v_new, v);
      active = active & ~conv;
    }
    v.store(v_out + k);
  });
}

}  // namespace simd_detail
}  // namespace sttram
