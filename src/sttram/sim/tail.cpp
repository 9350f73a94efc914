#include "sttram/sim/tail.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/sense/margins_batch.hpp"

namespace sttram {

double nondestructive_margin_at(const TailConfig& config,
                                const std::vector<double>& z) {
  require(z.size() == kTailDimensions,
          "nondestructive_margin_at: expected 5 variation coordinates");
  const MtjParams nominal = MtjParams::paper_calibrated();
  const double common = std::exp(config.variation.sigma_common * z[0]);
  const double tmr = std::exp(config.variation.sigma_tmr * z[1]);
  const MtjParams params = nominal.scaled(common, tmr);
  const Ohm r_access(917.0 * std::exp(config.sigma_access * z[2]));
  const LinearRiModel model(params);
  const FixedAccessResistor access(r_access);
  const NondestructiveSelfReference scheme(model, access, config.selfref);
  // Designed ratio of the nominal device: invariant across calls, so
  // the op cache answers every call after the first.
  const double beta = designed_point(SchemeId::kNondestructive, nominal,
                                     Ohm(917.0), config.selfref, config.beta)
                          .beta;
  SchemeMismatch mm;
  mm.beta_deviation = config.sigma_beta * z[3];
  mm.alpha_deviation = config.sigma_alpha * z[4];
  return scheme.margins(beta, mm).min().value();
}

TailEstimate estimate_margin_tail(const TailConfig& config,
                                  std::uint64_t seed, std::size_t trials,
                                  ParallelExecutor* executor) {
  STTRAM_OBS_COUNT("tail.searches");
  STTRAM_OBS_SCOPE("tail.search");
  // Hoisted operating point: the designed beta is a constant of the
  // experiment, so resolve it once here instead of re-deriving it inside
  // every margin evaluation of the design-point search.
  TailConfig solved = config;
  solved.beta = designed_point(SchemeId::kNondestructive,
                               MtjParams::paper_calibrated(), Ohm(917.0),
                               config.selfref, config.beta)
                    .beta;
  // The design-point search runs on the calling thread only.
  std::size_t margin_evals = 0;
  const auto g = [&](const std::vector<double>& z) {
    ++margin_evals;
    return nondestructive_margin_at(solved, z) - config.threshold.value();
  };
  TailEstimate out;
  out.design_point = design_point_on_gradient(g, kTailDimensions);
  if (out.design_point.empty()) {
    // No failure region within the search radius: report zero.
    STTRAM_OBS_ADD("tail.margin_evaluations", margin_evals);
    out.estimate.trials = trials;
    return out;
  }
  double r2 = 0.0;
  for (const double v : out.design_point) r2 += v * v;
  out.design_radius = std::sqrt(r2);
  TailKernelConfig kc;
  kc.nominal = MtjParams::paper_calibrated();
  kc.sigma_common = config.variation.sigma_common;
  kc.sigma_tmr = config.variation.sigma_tmr;
  kc.sigma_access = config.sigma_access;
  kc.sigma_beta = config.sigma_beta;
  kc.sigma_alpha = config.sigma_alpha;
  kc.selfref = config.selfref;
  kc.beta = solved.beta;
  const TailBatchKernel kernel = TailBatchKernel::build(kc);
  const double threshold = config.threshold.value();
  out.estimate = importance_sample_blocked(
      seed, trials, out.design_point,
      [&](const GaussianBlock& block, std::size_t, std::uint8_t* fails) {
        thread_local std::vector<double> margin;
        if (margin.size() < block.size) margin.resize(block.size);
        kernel.margins_min(block, margin.data());
        for (std::size_t lane = 0; lane < block.size; ++lane) {
          fails[lane] = (margin[lane] - threshold) < 0.0 ? 1 : 0;
        }
      },
      executor);
  // The sampling phase evaluates the margin once per trial.
  STTRAM_OBS_ADD("tail.margin_evaluations", margin_evals + trials);
  out.expected_failures_16kb = out.estimate.probability * 16384.0;
  return out;
}

}  // namespace sttram
