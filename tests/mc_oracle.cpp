#include "mc_oracle.hpp"

#include <array>
#include <cmath>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/importance.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::oracle {
namespace {

void record(SchemeYield& y, const SenseMargins& m, const YieldConfig& config,
            std::size_t keep_every) {
  y.bits += 1;
  y.sm0_stats.add(m.sm0.value());
  y.sm1_stats.add(m.sm1.value());
  if (m.min() < config.required_margin) y.failures += 1;
  if (keep_every == 1 || (y.bits % keep_every) == 1) {
    y.scatter.emplace_back(m.sm0.value(), m.sm1.value());
  }
  if (config.keep_per_bit_margins) {
    y.per_bit_min_margin.push_back(static_cast<float>(m.min().value()));
  }
}

}  // namespace

YieldResult run_yield(const YieldConfig& config, ParallelExecutor* executor) {
  const MtjParams nominal = MtjParams::paper_calibrated();

  YieldResult result;
  if (config.die_sigma > 0.0) {
    Xoshiro256 die_stream(config.seed ^ 0xd1ed1ed1ed1ed1eULL);
    result.die_factor =
        sample_lognormal_median(die_stream, 1.0, config.die_sigma);
  }
  const MtjParams die_nominal = nominal.scaled(result.die_factor, 1.0);
  const MtjVariationModel variation(die_nominal, config.variation);
  const MemoryArray array(config.geometry, variation, config.sigma_access,
                          config.seed);
  result.conventional.scheme = "conventional";
  result.reference_cell.scheme = "reference-cell";
  result.destructive.scheme = "destructive self-ref";
  result.nondestructive.scheme = "nondestructive self-ref";

  // Designed operating points of the nominal device, built inline.
  const FixedAccessResistor nominal_access(Ohm(917.0));
  const LinearRiModel nominal_model(nominal);
  result.beta_destructive =
      config.beta_destructive > 0.0
          ? config.beta_destructive
          : DestructiveSelfReference(nominal_model, nominal_access,
                                     config.selfref)
                .paper_beta();
  result.beta_nondestructive =
      config.beta_nondestructive > 0.0
          ? config.beta_nondestructive
          : NondestructiveSelfReference(nominal_model, nominal_access,
                                        config.selfref)
                .paper_beta();
  result.shared_v_ref = ConventionalSensing(nominal_model, nominal_access,
                                            config.selfref.i_max)
                            .midpoint_reference();
  result.shared_reference_window =
      array.shared_reference_window(config.selfref.i_max);

  const std::size_t cols = config.geometry.cols;
  const Xoshiro256 column_master(config.seed ^ 0x5741524d5454536bULL);
  std::vector<double> col_beta_dev(cols), col_alpha_dev(cols),
      col_vref_err(cols);
  std::vector<MtjParams> col_ref_p(cols), col_ref_ap(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    col_beta_dev[c] = sample_normal(stream, 0.0, config.sigma_beta);
    col_alpha_dev[c] = sample_normal(stream, 0.0, config.sigma_alpha);
    col_vref_err[c] = sample_normal(stream, 0.0, config.sigma_vref.value());
    col_ref_p[c] = variation.sample(stream);
    col_ref_ap[c] = variation.sample(stream);
  }

  const auto compute_cell = [&](std::size_t idx) {
    const std::size_t col = idx % cols;
    const ArrayCell& cell = array.cell(idx / cols, col);
    const LinearRiModel model(cell.params);
    const FixedAccessResistor access(cell.r_access);
    std::array<SenseMargins, 4> m;
    m[0] = ConventionalSensing(model, access, config.selfref.i_max)
               .margins(result.shared_v_ref + Volt(col_vref_err[col]));
    const LinearRiModel ref_p(col_ref_p[col]);
    const LinearRiModel ref_ap(col_ref_ap[col]);
    m[1] = ReferenceCellSensing(model, access, ref_p, ref_ap,
                                config.selfref.i_max)
               .margins();
    SchemeMismatch mm;
    mm.beta_deviation = col_beta_dev[col];
    m[2] = DestructiveSelfReference(model, access, config.selfref)
               .margins(result.beta_destructive, mm);
    mm.alpha_deviation = col_alpha_dev[col];
    m[3] = NondestructiveSelfReference(model, access, config.selfref)
               .margins(result.beta_nondestructive, mm);
    return m;
  };

  const std::size_t cells = config.geometry.cell_count();
  std::vector<std::array<SenseMargins, 4>> cell_margins(cells);
  if (executor != nullptr && executor->thread_count() > 1) {
    executor->for_chunks(
        cells, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t idx = begin; idx < end; ++idx) {
            cell_margins[idx] = compute_cell(idx);
          }
        });
  } else {
    for (std::size_t idx = 0; idx < cells; ++idx) {
      cell_margins[idx] = compute_cell(idx);
    }
  }

  const std::size_t keep_every =
      (config.max_scatter_points == 0 || cells <= config.max_scatter_points)
          ? 1
          : cells / config.max_scatter_points;
  for (const auto& m : cell_margins) {
    record(result.conventional, m[0], config, keep_every);
    record(result.reference_cell, m[1], config, keep_every);
    record(result.destructive, m[2], config, keep_every);
    record(result.nondestructive, m[3], config, keep_every);
  }
  return result;
}

TailEstimate estimate_tail(const TailConfig& config, std::uint64_t seed,
                           std::size_t trials, ParallelExecutor* executor) {
  TailConfig solved = config;
  if (solved.beta <= 0.0) {
    solved.beta = NondestructiveSelfReference(MtjParams::paper_calibrated(),
                                              Ohm(917.0), config.selfref)
                      .paper_beta();
  }
  const auto g = [&](const std::vector<double>& z) {
    return nondestructive_margin_at(solved, z) - config.threshold.value();
  };
  TailEstimate out;
  out.design_point = design_point_on_gradient(g, kTailDimensions);
  if (out.design_point.empty()) {
    out.estimate.trials = trials;
    return out;
  }
  double r2 = 0.0;
  for (const double v : out.design_point) r2 += v * v;
  out.design_radius = std::sqrt(r2);
  out.estimate = importance_sample(
      seed, trials, out.design_point,
      [&](const std::vector<double>& z) { return g(z) < 0.0; }, executor);
  out.expected_failures_16kb = out.estimate.probability * 16384.0;
  return out;
}

}  // namespace sttram::oracle
