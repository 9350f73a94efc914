// Width-8 Gaussian staging and tails, compiled with -mavx512f -mavx512dq
// -ffp-contract=off.
#include "sttram/stats/batch_simd.hpp"

namespace sttram {

const StatsSimdKernels* stats_simd_kernels_w8() {
#if defined(__x86_64__)
  static const StatsSimdKernels kernels{
      &simd_detail::stage_polar_simd<8>,
      &simd_detail::polar_tail_simd<8>,
      &simd_detail::gaussian_axis_simd<8>,
      &simd_detail::count_hits_simd<8>};
  return &kernels;
#else
  return nullptr;
#endif
}

}  // namespace sttram
