// Batched SoA variation sampling (declaration in variation.hpp).
//
// Per lane the draw sequence is exactly MtjVariationModel::sample
// followed by the access-device lognormal: common factor, TMR factor,
// (optional) truncated-normal critical-current factor, access factor.
// stage_polar_rows forks the lanes' streams and runs their polar
// rejection loops W lanes at a time under per-lane masks, in that order;
// the critical-current draw is a rejection slot whose value is dropped,
// as the margin kernels don't read i_critical.  Each lognormal
// exp(mu + sigma * n) is then finished per row: log(s) scalar, the value
// tail n = u * sqrt(-2 log(s) / s) on the active SIMD ISA, exp scalar —
// so every lane's doubles are bit-identical to the scalar path's.
#include <array>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/device/variation.hpp"

namespace sttram {

void sample_variation_block(const Xoshiro256& master,
                            const MtjVariationModel& variation,
                            double r_access_nominal, double sigma_access,
                            std::size_t first, std::size_t count,
                            VariationBlock& out) {
  require(count <= kMcBlockSize,
          "sample_variation_block: count exceeds kMcBlockSize");
  require(r_access_nominal > 0.0 && sigma_access >= 0.0,
          "sample_variation_block: need r_access_nominal > 0, sigma >= 0");
  out.size = count;
  const VariationParams& vp = variation.variation();
  const MtjParams& nominal = variation.nominal();

  // Rows 0-2: the common, TMR and access lognormals' polar pairs.
  PolarPlan plan;
  plan.pairs = 3;
  if (vp.sigma_icrit > 0.0) {
    plan.drop_at = 2;
    plan.dropped = variation.icrit_factor();
  }
  alignas(64) std::array<double, 3 * kMcBlockSize> u, s;
  stage_polar_rows(master, first, count, plan, u.data(), s.data(),
                   kMcBlockSize);

  // Lognormal factor per staged row: exp(mu + sigma * n), mu and exp
  // scalar, the normal's value tail vectorized.
  alignas(64) std::array<double, kMcBlockSize> t_row, n_row;
  const auto lognormal_row = [&](std::size_t row, double median,
                                 double sigma, double* val) {
    const double mu = std::log(median);
    const double* u_row = u.data() + row * kMcBlockSize;
    const double* s_row = s.data() + row * kMcBlockSize;
    for (std::size_t lane = 0; lane < count; ++lane) {
      t_row[lane] = std::log(s_row[lane]);
    }
    polar_tail(u_row, s_row, t_row.data(), count, n_row.data());
    for (std::size_t lane = 0; lane < count; ++lane) {
      val[lane] = std::exp(mu + sigma * n_row[lane]);
    }
  };

  alignas(64) std::array<double, kMcBlockSize> common, tmr;
  lognormal_row(0, 1.0, vp.sigma_common, common.data());
  lognormal_row(1, 1.0, vp.sigma_tmr, tmr.data());
  lognormal_row(2, r_access_nominal, sigma_access, out.r_access);

  for (std::size_t lane = 0; lane < count; ++lane) {
    const MtjParams p = nominal.scaled(common[lane], tmr[lane]);
    out.r_low0[lane] = p.r_low0.value();
    out.r_high0[lane] = p.r_high0.value();
    out.droop_low[lane] = p.droop_low.value();
    out.droop_high[lane] = p.droop_high.value();
  }
}

}  // namespace sttram
