#include "sttram/stats/batch.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/stats/batch_simd.hpp"

namespace sttram {
namespace {

const StatsSimdKernels& stats_kernels() {
  static const StatsSimdKernels kW1{&simd_detail::polar_tail_simd<1>,
                                    &simd_detail::gaussian_axis_simd<1>};
  return pick_simd_table(active_simd_isa(), &kW1, stats_simd_kernels_w2(),
                         stats_simd_kernels_w4(), stats_simd_kernels_w8());
}

}  // namespace

void stage_polar_pair(Xoshiro256& rng, double* u_out, double* s_out) {
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      *u_out = u;
      *s_out = s;
      return;
    }
  }
}

void polar_tail(const double* u, const double* s, const double* t,
                std::size_t n, double* out) {
  stats_kernels().polar_tail(u, s, t, n, out);
}

void fill_shifted_gaussian_block(const Xoshiro256& master,
                                 const std::vector<double>& shift,
                                 std::size_t first, std::size_t count,
                                 GaussianBlock& out) {
  require(out.dim == shift.size() && out.capacity >= count,
          "fill_shifted_gaussian_block: block not sized for this fill");
  out.size = count;
  // Stage the rejection draws lane-major — each lane's stream is forked
  // once and walked through all dims in order, exactly the scalar
  // sequence — into dimension-major (u, s) rows the vector tail sweeps.
  thread_local aligned_vector<double> u_rows, s_rows, t_rows;
  u_rows.resize(out.dim * out.capacity);
  s_rows.resize(out.dim * out.capacity);
  t_rows.resize(out.capacity);
  for (std::size_t lane = 0; lane < count; ++lane) {
    Xoshiro256 stream = master.fork(first + lane);
    for (std::size_t d = 0; d < out.dim; ++d) {
      stage_polar_pair(stream, &u_rows[d * out.capacity + lane],
                       &s_rows[d * out.capacity + lane]);
    }
  }
  const GaussianAxisFn axis_fn = stats_kernels().gaussian_axis;
  for (std::size_t lane = 0; lane < count; ++lane) out.dot[lane] = 0.0;
  for (std::size_t d = 0; d < out.dim; ++d) {
    const double* s_row = &s_rows[d * out.capacity];
    for (std::size_t lane = 0; lane < count; ++lane) {
      t_rows[lane] = std::log(s_row[lane]);
    }
    axis_fn(&u_rows[d * out.capacity], s_row, t_rows.data(), shift[d],
            count, out.axis(d), out.dot.data());
  }
}

}  // namespace sttram
