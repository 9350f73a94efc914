#include "sttram/sim/yield.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <limits>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/obs/trace.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

void record(SchemeYield& y, const SenseMargins& m, Volt required,
            std::size_t keep_every, bool keep_per_bit) {
  y.bits += 1;
  y.sm0_stats.add(m.sm0.value());
  y.sm1_stats.add(m.sm1.value());
  const bool failed = m.min() < required;
  if (failed) y.failures += 1;
  STTRAM_OBS_COUNT("yield.margin_evaluations");
  if (failed) STTRAM_OBS_COUNT("yield.margin_failures");
  if (keep_every == 0 || (y.bits % keep_every) == 1 || keep_every == 1) {
    y.scatter.emplace_back(m.sm0.value(), m.sm1.value());
  }
  if (keep_per_bit) {
    y.per_bit_min_margin.push_back(static_cast<float>(m.min().value()));
  }
}

/// Serial accumulation in row-major order: RunningStats and the scatter
/// subsampling are order-sensitive, so this pass is what keeps the
/// result bit-identical for any thread count.
void record_all(YieldResult& result, const YieldMarginsSoA& frame,
                const YieldConfig& config, std::size_t keep_every) {
  for (std::size_t i = 0; i < frame.cells; ++i) {
    const std::array<SenseMargins, 4> margins = frame.cell(i);
    record(result.conventional, margins[0], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.reference_cell, margins[1], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.destructive, margins[2], config.required_margin,
           keep_every, config.keep_per_bit_margins);
    record(result.nondestructive, margins[3], config.required_margin,
           keep_every, config.keep_per_bit_margins);
  }
}

std::size_t scatter_keep_every(const YieldConfig& config, std::size_t cells) {
  return (config.max_scatter_points == 0 ||
          cells <= config.max_scatter_points)
             ? 1
             : cells / config.max_scatter_points;
}

/// The batched SoA path: per-block variation sampling fused with the
/// four-scheme closed-form kernel, operating points memoized in the op
/// cache.  Bit-identical to the class-based per-cell path (see DESIGN.md
/// §14 for the argument; tests/test_mc_batch.cpp checks it against the
/// oracle in tests/mc_oracle.cpp).
YieldResult run_yield_batched(const YieldConfig& config,
                              ParallelExecutor* executor) {
  const MtjParams nominal = MtjParams::paper_calibrated();

  YieldResult result;
  // Die-level common factor: every MTJ on this chip (data and reference
  // cells) shares it; within-die variation samples around it.
  if (config.die_sigma > 0.0) {
    Xoshiro256 die_stream(config.seed ^ 0xd1ed1ed1ed1ed1eULL);
    result.die_factor =
        sample_lognormal_median(die_stream, 1.0, config.die_sigma);
  }
  const MtjParams die_nominal = nominal.scaled(result.die_factor, 1.0);
  const MtjVariationModel variation(die_nominal, config.variation);

  result.conventional.scheme = "conventional";
  result.reference_cell.scheme = "reference-cell";
  result.destructive.scheme = "destructive self-ref";
  result.nondestructive.scheme = "nondestructive self-ref";

  // Designed operating points from the thread-shard-local op cache —
  // pure functions of the nominal device and read setup, so a hit
  // returns exactly the value the scheme classes derive.
  const Ohm r_access_nominal(917.0);
  result.beta_destructive =
      config.beta_destructive > 0.0
          ? config.beta_destructive
          : cached_destructive_beta(nominal, r_access_nominal,
                                    config.selfref);
  result.beta_nondestructive =
      config.beta_nondestructive > 0.0
          ? config.beta_nondestructive
          : cached_nondestructive_beta(nominal, r_access_nominal,
                                       config.selfref);
  result.shared_v_ref =
      cached_shared_v_ref(nominal, r_access_nominal, config.selfref.i_max);

  const std::size_t cells = config.geometry.cell_count();
  const std::size_t keep_every = scatter_keep_every(config, cells);

  // Per-column peripheral mismatch streams, staged directly into the
  // kernel's input tables.
  const Xoshiro256 column_master(config.seed ^ 0x5741524d5454536bULL);
  YieldKernelInputs inputs;
  inputs.selfref = config.selfref;
  inputs.i_droop_ref = nominal.i_droop_ref.value();
  inputs.beta_destructive = result.beta_destructive;
  inputs.beta_nondestructive = result.beta_nondestructive;
  inputs.shared_v_ref = result.shared_v_ref;
  inputs.col_vref_err.resize(config.geometry.cols, 0.0);
  inputs.col_beta_dev.resize(config.geometry.cols, 0.0);
  inputs.col_alpha_dev.resize(config.geometry.cols, 0.0);
  inputs.col_ref_p.resize(config.geometry.cols);
  inputs.col_ref_ap.resize(config.geometry.cols);
  for (std::size_t c = 0; c < config.geometry.cols; ++c) {
    Xoshiro256 stream = column_master.fork(c);
    inputs.col_beta_dev[c] = sample_normal(stream, 0.0, config.sigma_beta);
    inputs.col_alpha_dev[c] = sample_normal(stream, 0.0, config.sigma_alpha);
    inputs.col_vref_err[c] =
        sample_normal(stream, 0.0, config.sigma_vref.value());
    inputs.col_ref_p[c] = variation.sample(stream);
    inputs.col_ref_ap[c] = variation.sample(stream);
  }
  const YieldBatchKernel kernel = YieldBatchKernel::build(inputs);

  // Cache-blocked sweep: sample a block of cells into SoA arrays (the
  // exact per-cell streams MemoryArray forks) and solve all lanes while
  // the samples are L1-resident.  Chunks write disjoint margin slots and
  // private window partials; the window merge and the record pass run
  // serially in index order, so any thread count is bit-identical.
  const Xoshiro256 cell_master(config.seed);
  YieldMarginsSoA cell_margins;
  cell_margins.resize(cells);
  const bool parallel =
      executor != nullptr && executor->thread_count() > 1;
  const std::size_t chunks = parallel ? executor->thread_count() : 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> chunk_max_low(chunks, -kInf);
  std::vector<double> chunk_min_high(chunks, kInf);
  obs::HistogramMetric* block_hist =
      obs::metrics_enabled()
          ? &obs::Registry::instance().histogram("mc.block_seconds")
          : nullptr;
  STTRAM_OBS_SET_GAUGE("mc.batch_size", kMcBlockSize);
  const auto run_range = [&](std::size_t chunk, std::size_t begin,
                             std::size_t end) {
    VariationBlock block;
    double max_low = -kInf;
    double min_high = kInf;
    for (std::size_t b = begin; b < end; b += kMcBlockSize) {
      const std::size_t count = std::min(end - b, kMcBlockSize);
      const auto t0 = block_hist != nullptr
                          ? std::chrono::steady_clock::now()
                          : std::chrono::steady_clock::time_point{};
      sample_variation_block(cell_master, variation,
                             r_access_nominal.value(), config.sigma_access,
                             b, count, block);
      kernel.solve(block, b, &cell_margins, &max_low, &min_high);
      if (block_hist != nullptr) {
        block_hist->record(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      }
    }
    chunk_max_low[chunk] = max_low;
    chunk_min_high[chunk] = min_high;
  };
  if (parallel) {
    executor->for_chunks(cells, run_range);
  } else {
    run_range(0, 0, cells);
  }
  double max_low = -kInf;
  double min_high = kInf;
  for (std::size_t c = 0; c < chunks; ++c) {
    max_low = std::max(max_low, chunk_max_low[c]);
    min_high = std::min(min_high, chunk_min_high[c]);
  }
  result.shared_reference_window = Volt(min_high - max_low);

  record_all(result, cell_margins, config, keep_every);
  return result;
}

}  // namespace

YieldResult run_yield_experiment(const YieldConfig& config,
                                 ParallelExecutor* executor) {
  STTRAM_OBS_COUNT("yield.experiments");
  obs::TraceSpan span("run_yield_experiment", "yield");
  STTRAM_PROFILE_SCOPE("yield.experiment");
  const bool metered = obs::metrics_enabled();
  const auto t_begin = std::chrono::steady_clock::now();
  YieldResult result = run_yield_batched(config, executor);
  if (metered) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_begin)
            .count();
    auto& registry = obs::Registry::instance();
    registry.timer("yield.experiment_seconds").record(elapsed);
    if (elapsed > 0.0) {
      registry.gauge("yield.cells_per_second")
          .set(static_cast<double>(config.geometry.cell_count()) / elapsed);
    }
  }
  return result;
}

std::vector<YieldSweepPoint> sweep_variation(
    const YieldConfig& base, const std::vector<double>& sigmas,
    ParallelExecutor* executor) {
  std::vector<YieldSweepPoint> out;
  out.reserve(sigmas.size());
  for (const double sigma : sigmas) {
    YieldConfig cfg = base;
    cfg.variation.sigma_common = sigma;
    const YieldResult r = run_yield_experiment(cfg, executor);
    YieldSweepPoint p;
    p.sigma_common = sigma;
    p.conventional_failure_rate = r.conventional.failure_rate();
    p.destructive_failure_rate = r.destructive.failure_rate();
    p.nondestructive_failure_rate = r.nondestructive.failure_rate();
    out.push_back(p);
  }
  return out;
}

}  // namespace sttram
