// Width-2 Gaussian tails: SSE2 on x86-64, NEON on aarch64 (both baseline
// ISAs, so no extra -m flags — just -ffp-contract=off -fno-math-errno).
// The staging and the Bernoulli counter run at W = 1 here: neither ISA
// has a packed 64-bit multiply, and on SSE2 two lanes measured slower
// (staging) or no faster (counter) than one (DESIGN.md §15.2; not
// measured on NEON).
#include "sttram/stats/batch_simd.hpp"

namespace sttram {

const StatsSimdKernels* stats_simd_kernels_w2() {
#if defined(__x86_64__) || defined(__aarch64__)
  static const StatsSimdKernels kernels{
      &simd_detail::stage_polar_simd<1>,
      &simd_detail::polar_tail_simd<2>,
      &simd_detail::gaussian_axis_simd<2>,
      &simd_detail::count_hits_simd<1>};
  return &kernels;
#else
  return nullptr;
#endif
}

}  // namespace sttram
