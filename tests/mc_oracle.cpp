#include "mc_oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/common/error.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::oracle {
namespace {

/// V_BL,s = I (R(s, I) + R_T(I)).
Volt bitline(const RiModel& model, const AccessDeviceModel& access,
             MtjState s, Ampere i) {
  return i * (model.resistance(s, i) + access.resistance(i));
}

/// A second read with the access device shifted by dR_T.
Volt shifted_bitline(const RiModel& model, const AccessDeviceModel& access,
                     MtjState s, Ampere i, Ohm delta_r_t) {
  return i * (model.resistance(s, i) + access.resistance(i) + delta_r_t);
}

constexpr MtjState kL = MtjState::kParallel;
constexpr MtjState kH = MtjState::kAntiParallel;

/// nondestructive() on TailConfig's variation space at coordinates z.
double tail_margin_at(const TailConfig& config, const std::vector<double>& z) {
  const MtjParams params = MtjParams::paper_calibrated().scaled(
      std::exp(config.variation.sigma_common * z[0]),
      std::exp(config.variation.sigma_tmr * z[1]));
  const LinearRiModel model(params);
  const FixedAccessResistor access(
      Ohm(917.0 * std::exp(config.sigma_access * z[2])));
  SchemeMismatch mm;
  mm.beta_deviation = config.sigma_beta * z[3];
  mm.alpha_deviation = config.sigma_alpha * z[4];
  return nondestructive(model, access, config.selfref, config.beta, mm)
      .min()
      .value();
}

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

SenseMargins conventional(const RiModel& model,
                          const AccessDeviceModel& access, Ampere i_read,
                          Volt v_ref) {
  SenseMargins m;
  m.sm0 = v_ref - bitline(model, access, kL, i_read);
  m.sm1 = bitline(model, access, kH, i_read) - v_ref;
  return m;
}

SenseMargins reference_cell(const RiModel& data,
                            const AccessDeviceModel& access,
                            const RiModel& ref_p, const RiModel& ref_ap,
                            Ampere i_read) {
  const Volt v_ref = 0.5 * (bitline(ref_p, access, kL, i_read) +
                            bitline(ref_ap, access, kH, i_read));
  return conventional(data, access, i_read, v_ref);
}

SenseMargins destructive(const RiModel& model,
                         const AccessDeviceModel& access,
                         const SelfRefConfig& config, double beta,
                         const SchemeMismatch& mm) {
  const Ampere i2 = config.i_max;
  const Ampere i1 = i2 / (beta * (1.0 + mm.beta_deviation));
  const Volt v_bl2 = shifted_bitline(model, access, kL, i2, mm.delta_r_t);
  SenseMargins m;
  m.sm0 = v_bl2 - bitline(model, access, kL, i1);
  m.sm1 = bitline(model, access, kH, i1) - v_bl2;
  return m;
}

SenseMargins nondestructive(const RiModel& model,
                            const AccessDeviceModel& access,
                            const SelfRefConfig& config, double beta,
                            const SchemeMismatch& mm) {
  const Ampere i2 = config.i_max;
  const Ampere i1 = i2 / (beta * (1.0 + mm.beta_deviation));
  const double alpha = config.alpha * (1.0 + mm.alpha_deviation);
  SenseMargins m;
  m.sm0 = alpha * shifted_bitline(model, access, kL, i2, mm.delta_r_t) -
          bitline(model, access, kL, i1);
  m.sm1 = bitline(model, access, kH, i1) -
          alpha * shifted_bitline(model, access, kH, i2, mm.delta_r_t);
  return m;
}

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
  result.shared_v_ref =
      0.5 * (bitline(nominal_model, nominal_access, kL, config.selfref.i_max) +
             bitline(nominal_model, nominal_access, kH, config.selfref.i_max));
  result.shared_reference_window =
      shared_reference_window(array, config.selfref.i_max);

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
    m[0] = conventional(model, access, config.selfref.i_max,
                        result.shared_v_ref + Volt(col_vref_err[col]));
    const LinearRiModel ref_p(col_ref_p[col]);
    const LinearRiModel ref_ap(col_ref_ap[col]);
    m[1] = reference_cell(model, access, ref_p, ref_ap, config.selfref.i_max);
    SchemeMismatch mm;
    mm.beta_deviation = col_beta_dev[col];
    m[2] = destructive(model, access, config.selfref,
                       result.beta_destructive, mm);
    mm.alpha_deviation = col_alpha_dev[col];
    m[3] = nondestructive(model, access, config.selfref,
                          result.beta_nondestructive, mm);
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

  // Every ceil(cells / max)-th bit: at most max_scatter_points points.
  const std::size_t max = config.max_scatter_points;
  const std::size_t keep_every =
      (max == 0 || cells <= max) ? 1 : (cells - 1) / max + 1;
  for (const auto& m : cell_margins) {
    record(result.conventional, m[0], config, keep_every);
    record(result.reference_cell, m[1], config, keep_every);
    record(result.destructive, m[2], config, keep_every);
    record(result.nondestructive, m[3], config, keep_every);
  }
  return result;
}

ImportanceEstimate importance_sample(
    std::uint64_t seed, std::size_t trials, const std::vector<double>& shift,
    const std::function<bool(const std::vector<double>&)>& fails,
    ParallelExecutor* executor) {
  require(trials > 0, "importance_sample: trials must be > 0");
  require(!shift.empty(), "importance_sample: shift vector required");
  const std::size_t dim = shift.size();
  double shift_sq = 0.0;
  for (const double s : shift) shift_sq += s * s;

  const Xoshiro256 master(seed);
  // One trial: draw z from the shifted proposal, test it, and return the
  // likelihood-ratio weight (0 on a pass).
  const auto run_trial = [&](std::size_t k, std::vector<double>& z,
                             double& w) -> bool {
    Xoshiro256 stream = master.fork(k);
    double dot = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      z[i] = shift[i] + sample_standard_normal(stream);
      dot += shift[i] * z[i];
    }
    if (!fails(z)) return false;
    w = std::exp(-dot + 0.5 * shift_sq);
    return true;
  };

  double sum_w = 0.0;
  double sum_w2 = 0.0;
  std::size_t hits = 0;
  if (executor != nullptr && executor->thread_count() > 1) {
    // Sample in parallel, storing each trial's outcome, then reduce the
    // weight sums serially in trial order — floating-point addition is
    // order-sensitive, so this keeps the estimate bit-identical to the
    // serial run.
    struct TrialOutcome {
      bool hit = false;
      double w = 0.0;
    };
    std::vector<TrialOutcome> outcomes(trials);
    executor->for_chunks(
        trials, [&](std::size_t, std::size_t begin, std::size_t end) {
          std::vector<double> z(dim);
          for (std::size_t k = begin; k < end; ++k) {
            outcomes[k].hit = run_trial(k, z, outcomes[k].w);
          }
        });
    for (const TrialOutcome& o : outcomes) {
      if (!o.hit) continue;
      ++hits;
      sum_w += o.w;
      sum_w2 += o.w * o.w;
    }
  } else {
    std::vector<double> z(dim);
    for (std::size_t k = 0; k < trials; ++k) {
      double w = 0.0;
      if (run_trial(k, z, w)) {
        ++hits;
        sum_w += w;
        sum_w2 += w * w;
      }
    }
  }
  STTRAM_OBS_ADD("is.trials", trials);
  STTRAM_OBS_ADD("is.hits", hits);
  ImportanceEstimate e;
  e.trials = trials;
  e.hits = hits;
  const double n = static_cast<double>(trials);
  e.probability = sum_w / n;
  const double var = std::max(0.0, sum_w2 / n - e.probability * e.probability);
  e.std_error = std::sqrt(var / n);
  e.relative_error =
      e.probability > 0.0 ? e.std_error / e.probability : 0.0;
  return e;
}

ProbabilityEstimate wilson_interval(std::size_t hits, std::size_t trials,
                                    double z) {
  require(trials > 0, "wilson_interval: trials must be > 0");
  require(hits <= trials, "wilson_interval: hits must be <= trials");
  ProbabilityEstimate e;
  e.trials = trials;
  e.hits = hits;
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(hits) / n;
  e.p = p;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  e.ci_lo = std::max(0.0, center - half);
  e.ci_hi = std::min(1.0, center + half);
  return e;
}

ProbabilityEstimate estimate_probability(
    std::uint64_t seed, std::size_t trials,
    const std::function<bool(Xoshiro256&)>& predicate,
    ParallelExecutor* executor) {
  require(trials > 0, "estimate_probability: trials must be > 0");
  const Xoshiro256 master(seed);
  SerialExecutor serial;
  ParallelExecutor& exec = executor != nullptr ? *executor : serial;
  // Hit counts are integers, so per-chunk tallies sum exactly.
  std::vector<std::size_t> chunk_hits(exec.thread_count(), 0);
  exec.for_chunks(trials, [&](std::size_t chunk, std::size_t begin,
                              std::size_t end) {
    std::size_t local = 0;
    for (std::size_t i = begin; i < end; ++i) {
      Xoshiro256 stream = master.fork(i);
      if (predicate(stream)) ++local;
    }
    chunk_hits[chunk] = local;
  });
  std::size_t hits = 0;
  for (const std::size_t h : chunk_hits) hits += h;
  return wilson_interval(hits, trials);
}

Volt shared_reference_window(const MemoryArray& a, Ampere i) {
  Volt max_low(-std::numeric_limits<double>::infinity());
  Volt min_high(std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < a.geometry().rows; ++r) {
    for (std::size_t col = 0; col < a.geometry().cols; ++col) {
      const ArrayCell& c = a.cell(r, col);
      const LinearRiModel m(c.params);
      max_low = max(max_low,
                    i * (m.resistance(MtjState::kParallel, i) + c.r_access));
      min_high = min(min_high, i * (m.resistance(MtjState::kAntiParallel, i) +
                                    c.r_access));
    }
  }
  return min_high - max_low;
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
    return tail_margin_at(solved, z) - config.threshold.value();
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
