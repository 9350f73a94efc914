#include "sttram/sim/yield.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <limits>

#include "sttram/common/error.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/sense/margins_batch.hpp"
#include "sttram/stats/batch.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram {
namespace {

/// Cells per pipeline window.  Each of the two reused margin buffers
/// holds 8 doubles per cell: 1 MiB at this size, whatever the array.
constexpr std::size_t kWindowCells = 16384;

/// The record's margin moments, kept across windows: group s holds
/// scheme s's SM0 accumulator in lane 0 and its SM1 accumulator in lane 1.
using MarginLanes = std::array<WelfordLanes<2>, kSchemeCount>;

/// Serial accumulation of one window.  The moments and the scatter
/// subsampling are order-sensitive; every accumulator sees its values in
/// row-major cell order for any window split or thread count, which is
/// what keeps the result bit-identical.
void record_window(YieldResult& result, MarginLanes& moments,
                   const YieldMarginsSoA& window, const YieldConfig& config,
                   std::size_t keep_every) {
  const double required = config.required_margin.value();
  // SenseMargins::min(), operand order included (it fixes which zero a
  // -0.0 / +0.0 pair yields).
  const auto min_margin = [](double sm0, double sm1) {
    return sm0 < sm1 ? sm0 : sm1;
  };
  // Each lane runs RunningStats::add's operations in its order, so it
  // holds the bits a RunningStats fed its values would.  The schemes'
  // update chains are independent, which lets a cell's divisions
  // overlap; the local copy keeps them in registers across the window.
  MarginLanes lanes = moments;
  const double* rows[2 * kSchemeCount];
  for (std::size_t r = 0; r < 2 * kSchemeCount; ++r) rows[r] = window.row(r);
  for (std::size_t i = 0; i < window.cells; ++i) {
    for (std::size_t s = 0; s < kSchemeCount; ++s) {
      lanes[s].add(simd::Vec<2>{{rows[2 * s][i], rows[2 * s + 1][i]}});
    }
  }
  moments = lanes;
  // Scatter points sit at every keep_every-th row-major index.
  const std::size_t first_kept =
      (keep_every - window.origin % keep_every) % keep_every;
  std::size_t failures = 0;
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    SchemeYield& y = result.scheme(kSchemeTable[s].id);
    const double* sm0 = window.row(2 * s);
    const double* sm1 = window.row(2 * s + 1);
    std::size_t scheme_failures = 0;
    for (std::size_t i = 0; i < window.cells; ++i) {
      scheme_failures += min_margin(sm0[i], sm1[i]) < required ? 1 : 0;
    }
    y.failures += scheme_failures;
    failures += scheme_failures;
    y.bits += window.cells;
    for (std::size_t i = first_kept; i < window.cells; i += keep_every) {
      y.scatter.emplace_back(sm0[i], sm1[i]);
    }
    if (config.keep_per_bit_margins) {
      for (std::size_t i = 0; i < window.cells; ++i) {
        y.per_bit_min_margin.push_back(
            static_cast<float>(min_margin(sm0[i], sm1[i])));
      }
    }
  }
  STTRAM_OBS_ADD("yield.margin_evaluations", kSchemeCount * window.cells);
  STTRAM_OBS_ADD("yield.margin_failures", failures);
}

/// Keeps every k-th cell with k = ceil(cells / max_scatter_points): at
/// most that many points, exactly that many when it divides the cells.
std::size_t scatter_keep_every(const YieldConfig& config, std::size_t cells) {
  const std::size_t max = config.max_scatter_points;
  return (max == 0 || cells <= max) ? 1 : (cells - 1) / max + 1;
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

  for (const SchemeRow& row : kSchemeTable) {
    result.scheme(row.id).scheme = row.label;
  }

  // Designed operating points from the thread-shard-local op cache —
  // pure functions of the nominal device and read setup, so a hit
  // returns exactly the value the scheme classes derive.
  const Ohm r_access_nominal(917.0);
  const auto designed = [&](SchemeId id, double beta = 0.0) {
    return designed_point(id, nominal, r_access_nominal, config.selfref,
                          beta);
  };
  result.beta_destructive =
      designed(SchemeId::kDestructive, config.beta_destructive).beta;
  result.beta_nondestructive =
      designed(SchemeId::kNondestructive, config.beta_nondestructive).beta;
  result.shared_v_ref = Volt(designed(SchemeId::kConventional).v_ref);

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

  // Window pipeline.  Window j is sampled and solved into buffer j % 2
  // by one for_chunks() dispatch whose chunks all claim 64-cell blocks
  // from a shared counter: the samples are L1-resident when the kernel
  // reads them, and a cell's margins depend only on its index (its
  // stream is cell_master.fork(index)), never on the thread that
  // computes it.  In the same dispatch chunk 0 first records window
  // j - 1 from the other buffer, so the serial row-major reduction
  // overlaps the other chunks' sampling instead of following it
  // (common/parallel.hpp states both patterns).
  const Xoshiro256 cell_master(config.seed);
  const std::size_t windows = (cells + kWindowCells - 1) / kWindowCells;
  std::array<YieldMarginsSoA, 2> buffers;
  SerialExecutor serial;
  ParallelExecutor& exec = executor != nullptr ? *executor : serial;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Window bounds are min/max, exact in any order.  Each chunk folds its
  // blocks in locals and stores its own cache line once per window.
  struct alignas(64) WindowBounds {
    double max_low = -kInf;
    double min_high = kInf;
  };
  std::vector<WindowBounds> chunk_bounds(exec.thread_count());
  struct alignas(64) BlockClaim {
    std::atomic<std::size_t> next{0};
  } claim;
  STTRAM_OBS_SET_GAUGE("mc.batch_size", kMcBlockSize);
  MarginLanes moments;
  std::size_t window = 0;
  const std::function<void(std::size_t, std::size_t, std::size_t)> step =
      [&](std::size_t chunk, std::size_t, std::size_t) {
        if (chunk == 0 && window > 0) {
          record_window(result, moments, buffers[(window - 1) % 2], config,
                        keep_every);
        }
        YieldMarginsSoA& out = buffers[window % 2];
        const std::size_t blocks =
            (out.cells + kMcBlockSize - 1) / kMcBlockSize;
        VariationBlock block;
        WindowBounds bounds = chunk_bounds[chunk];
        for (;;) {
          const std::size_t b =
              claim.next.fetch_add(1, std::memory_order_relaxed);
          if (b >= blocks) break;
          const std::size_t first = out.origin + b * kMcBlockSize;
          const std::size_t count =
              std::min(out.cells - b * kMcBlockSize, kMcBlockSize);
          sample_variation_block(cell_master, variation,
                                 r_access_nominal.value(),
                                 config.sigma_access, first, count, block);
          kernel.solve(block, first, &out, &bounds.max_low,
                       &bounds.min_high);
        }
        chunk_bounds[chunk] = bounds;
      };
  for (; window < windows; ++window) {
    YieldMarginsSoA& out = buffers[window % 2];
    out.origin = window * kWindowCells;
    out.resize(std::min(cells - out.origin, kWindowCells));
    claim.next.store(0, std::memory_order_relaxed);
    exec.for_chunks(exec.thread_count(), step);
  }
  if (windows > 0) {
    record_window(result, moments, buffers[(windows - 1) % 2], config,
                  keep_every);
  }
  for (std::size_t s = 0; s < kSchemeCount; ++s) {
    SchemeYield& y = result.scheme(kSchemeTable[s].id);
    y.sm0_stats = RunningStats(moments[s], 0);
    y.sm1_stats = RunningStats(moments[s], 1);
  }
  double max_low = -kInf;
  double min_high = kInf;
  for (const WindowBounds& b : chunk_bounds) {
    max_low = std::max(max_low, b.max_low);
    min_high = std::min(min_high, b.min_high);
  }
  result.shared_reference_window = Volt(min_high - max_low);
  return result;
}

}  // namespace

YieldResult run_yield_experiment(const YieldConfig& config,
                                 ParallelExecutor* executor) {
  STTRAM_OBS_COUNT("yield.experiments");
  STTRAM_OBS_SCOPE("yield.experiment");
  return run_yield_batched(config, executor);
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
    for (const SchemeRow& row : kSchemeTable) {
      p.failure_rate[scheme_index(row.id)] = r.scheme(row.id).failure_rate();
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace sttram
