#include "sttram/stats/batch.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/stats/batch_simd.hpp"

namespace sttram {
namespace {

const StatsSimdKernels& stats_kernels() {
  static const StatsSimdKernels kW1{&simd_detail::stage_polar_simd<1>,
                                    &simd_detail::polar_tail_simd<1>,
                                    &simd_detail::gaussian_axis_simd<1>,
                                    &simd_detail::count_hits_simd<1>};
  return pick_simd_table(active_simd_isa(), &kW1, stats_simd_kernels_w2(),
                         stats_simd_kernels_w4(), stats_simd_kernels_w8());
}

/// The polar `s` above which a draw of `d` lands inside its window
/// whatever its u: u^2 <= s gives |n| <= sqrt(-2 ln s), below k once
/// s > exp(-k^2 / 2), with k 0.99 x the nearer bound in sigma units.  The
/// 1 % slack dwarfs the rounding of n, x, log and exp, so the scalar
/// window test accepts every such draw too (DESIGN.md §15.2).
double safe_polar_s(const TruncatedNormal& d) {
  const double k = 0.99 * std::min(d.mean - d.lo, d.hi - d.mean) / d.stddev;
  return k > 0.0 ? std::exp(-0.5 * k * k) : 1.0;
}

}  // namespace

void simd_detail::throw_truncated_normal_hopeless() {
  throw NumericError(
      "sample_truncated_normal: rejection sampling failed (window too far "
      "in the tail)");
}

void stage_polar_rows(const Xoshiro256& master, std::size_t first,
                      std::size_t count, const PolarPlan& plan,
                      double* u_rows, double* s_rows, std::size_t stride) {
  double s_safe = 1.0;
  if (plan.drop_at < plan.pairs) {
    require(plan.dropped.stddev > 0.0 && plan.dropped.lo < plan.dropped.hi,
            "stage_polar_rows: dropped normal needs stddev > 0, lo < hi");
    s_safe = safe_polar_s(plan.dropped);
  }
  stats_kernels().stage_polar(master, first, count, plan, s_safe, u_rows,
                              s_rows, stride);
}

void polar_tail(const double* u, const double* s, const double* t,
                std::size_t n, double* out) {
  stats_kernels().polar_tail(u, s, t, n, out);
}

void count_bernoulli_hits(const Xoshiro256& master, const std::uint64_t* ids,
                          std::size_t n, std::size_t draws,
                          std::uint64_t threshold, std::uint32_t* counts) {
  stats_kernels().count_hits(master, ids, n, draws, threshold, counts);
}

BernoulliStream::BernoulliStream(const Xoshiro256& master, std::uint64_t id) {
  rng_detail::xoshiro256_seed(master.fork_seed(id), s_);
}

std::uint32_t BernoulliStream::count(std::size_t draws,
                                     std::uint64_t threshold) {
  return static_cast<std::uint32_t>(
      simd_detail::count_hits<1>(s_, draws, threshold));
}

void fill_shifted_gaussian_block(const Xoshiro256& master,
                                 const std::vector<double>& shift,
                                 std::size_t first, std::size_t count,
                                 GaussianBlock& out) {
  require(out.dim == shift.size() && out.capacity >= count,
          "fill_shifted_gaussian_block: block not sized for this fill");
  out.size = count;
  // Stage every lane's dim polar pairs into dimension-major (u, s) rows
  // the vector tail sweeps.
  thread_local aligned_vector<double> u_rows, s_rows, t_rows;
  u_rows.resize(out.dim * out.capacity);
  s_rows.resize(out.dim * out.capacity);
  t_rows.resize(out.capacity);
  PolarPlan plan;
  plan.pairs = out.dim;
  stage_polar_rows(master, first, count, plan, u_rows.data(), s_rows.data(),
                   out.capacity);
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
