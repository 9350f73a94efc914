#include "sttram/device/variation.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/stats/distributions.hpp"

namespace sttram {

MtjVariationModel::MtjVariationModel(MtjParams nominal,
                                     VariationParams variation)
    : nominal_(nominal), variation_(variation) {
  require(variation.sigma_common >= 0.0 && variation.sigma_tmr >= 0.0 &&
              variation.sigma_icrit >= 0.0,
          "MtjVariationModel: sigmas must be >= 0");
}

MtjVariationDraw MtjVariationModel::draw(Xoshiro256& rng) const {
  MtjVariationDraw d;
  d.common = sample_lognormal_median(rng, 1.0, variation_.sigma_common);
  d.tmr_scale = sample_lognormal_median(rng, 1.0, variation_.sigma_tmr);
  if (variation_.sigma_icrit > 0.0) {
    const TruncatedNormal f = icrit_factor();
    d.icrit_scale = sample_truncated_normal(rng, f.mean, f.stddev, f.lo, f.hi);
  }
  return d;
}

TruncatedNormal MtjVariationModel::icrit_factor() const {
  const double sigma = variation_.sigma_icrit;
  return {1.0, sigma, std::max(0.05, 1.0 - 4.0 * sigma), 1.0 + 4.0 * sigma};
}

MtjParams MtjVariationModel::apply(const MtjVariationDraw& d) const {
  MtjParams p = nominal_.scaled(d.common, d.tmr_scale);
  p.i_critical = nominal_.i_critical * d.icrit_scale;
  return p;
}

MtjParams MtjVariationModel::sample(Xoshiro256& rng) const {
  return apply(draw(rng));
}

MtjParams MtjVariationModel::corner(double n_sigma, int common_dir,
                                    int tmr_dir) const {
  require(common_dir == 1 || common_dir == -1 || common_dir == 0,
          "corner: common_dir must be -1, 0 or +1");
  require(tmr_dir == 1 || tmr_dir == -1 || tmr_dir == 0,
          "corner: tmr_dir must be -1, 0 or +1");
  MtjVariationDraw d;
  d.common = std::exp(common_dir * n_sigma * variation_.sigma_common);
  d.tmr_scale = std::exp(tmr_dir * n_sigma * variation_.sigma_tmr);
  return apply(d);
}

double sigma_common_from_thickness(double sigma_angstrom,
                                   double pct_per_tenth_angstrom) {
  require(sigma_angstrom >= 0.0,
          "sigma_common_from_thickness: sigma must be >= 0");
  require(pct_per_tenth_angstrom > -1.0,
          "sigma_common_from_thickness: sensitivity must be > -100 %");
  return std::log1p(pct_per_tenth_angstrom) * (sigma_angstrom / 0.1);
}

}  // namespace sttram
