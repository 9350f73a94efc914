// yield_1mbit: run_yield_experiment on a 1024 x 1024 array with the
// Fig. 11 defaults — variation sampling -> SIMD margin kernel -> serial
// reduction, the Monte-Carlo pipeline at the size a user launches.
#include <algorithm>
#include <limits>

#include "harness.hpp"
#include "sttram/stats/distributions.hpp"
#include "yield_kernel.hpp"

namespace e2e {

using sttram::YieldConfig;
using sttram::YieldResult;

sttram::MtjVariationModel yield_variation(const YieldConfig& cfg) {
  double die_factor = 1.0;
  if (cfg.die_sigma > 0.0) {
    sttram::Xoshiro256 die_stream(cfg.seed ^ 0xd1ed1ed1ed1ed1eULL);
    die_factor =
        sttram::sample_lognormal_median(die_stream, 1.0, cfg.die_sigma);
  }
  return sttram::MtjVariationModel(
      sttram::MtjParams::paper_calibrated().scaled(die_factor, 1.0),
      cfg.variation);
}

sttram::YieldBatchKernel build_yield_kernel(
    const YieldConfig& cfg, const sttram::MtjVariationModel& model) {
  const sttram::MtjParams nominal = sttram::MtjParams::paper_calibrated();
  const sttram::Ohm r_access(917.0);
  sttram::YieldKernelInputs in;
  in.selfref = cfg.selfref;
  in.i_droop_ref = nominal.i_droop_ref.value();
  in.beta_destructive =
      cfg.beta_destructive > 0.0
          ? cfg.beta_destructive
          : sttram::cached_destructive_beta(nominal, r_access, cfg.selfref);
  in.beta_nondestructive =
      cfg.beta_nondestructive > 0.0
          ? cfg.beta_nondestructive
          : sttram::cached_nondestructive_beta(nominal, r_access,
                                               cfg.selfref);
  in.shared_v_ref =
      sttram::cached_shared_v_ref(nominal, r_access, cfg.selfref.i_max);
  const std::size_t cols = cfg.geometry.cols;
  in.col_vref_err.resize(cols);
  in.col_beta_dev.resize(cols);
  in.col_alpha_dev.resize(cols);
  in.col_ref_p.resize(cols);
  in.col_ref_ap.resize(cols);
  const sttram::Xoshiro256 column_master(cfg.seed ^ 0x5741524d5454536bULL);
  for (std::size_t c = 0; c < cols; ++c) {
    sttram::Xoshiro256 stream = column_master.fork(c);
    in.col_beta_dev[c] = sttram::sample_normal(stream, 0.0, cfg.sigma_beta);
    in.col_alpha_dev[c] = sttram::sample_normal(stream, 0.0, cfg.sigma_alpha);
    in.col_vref_err[c] =
        sttram::sample_normal(stream, 0.0, cfg.sigma_vref.value());
    in.col_ref_p[c] = model.sample(stream);
    in.col_ref_ap[c] = model.sample(stream);
  }
  return sttram::YieldBatchKernel::build(in);
}

std::size_t replay_yield(const YieldConfig& cfg, Tracer& tracer) {
  Tracer::Scope root(tracer, "sim.yield.replay");
  const sttram::MtjVariationModel model = yield_variation(cfg);
  const sttram::YieldBatchKernel kernel = [&] {
    Tracer::Scope s(tracer, "sense.kernel_build");
    return build_yield_kernel(cfg, model);
  }();
  const std::size_t cells = cfg.geometry.cell_count();
  sttram::YieldMarginsSoA frame;
  {
    Tracer::Scope s(tracer, "sim.yield.frame_fill");
    frame.resize(cells);
  }
  const sttram::Xoshiro256 master(cfg.seed);
  sttram::VariationBlock block;
  double max_low = -std::numeric_limits<double>::infinity();
  double min_high = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < cells; b += sttram::kMcBlockSize) {
    const std::size_t count = std::min(cells - b, sttram::kMcBlockSize);
    {
      Tracer::Scope s(tracer, "device.sample_variation_block", true);
      sttram::sample_variation_block(master, model, 917.0, cfg.sigma_access,
                                     b, count, block);
    }
    Tracer::Scope s(tracer, "sense.kernel_solve", true);
    kernel.solve(block, b, &frame, &max_low, &min_high);
  }
  Tracer::Scope s(tracer, "sim.yield.count");
  // Nondestructive scheme = output rows 6 (SM0) and 7 (SM1).
  const double required = cfg.required_margin.value();
  std::size_t failures = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    if (std::min(frame.row(6)[i], frame.row(7)[i]) < required) ++failures;
  }
  return failures;
}

namespace {

void add_scheme(Digest& d, const sttram::SchemeYield& y) {
  d.add(y.scheme).add(std::uint64_t{y.bits}).add(std::uint64_t{y.failures});
  for (const sttram::RunningStats* s : {&y.sm0_stats, &y.sm1_stats}) {
    d.add(std::uint64_t{s->count()})
        .add(s->mean())
        .add(s->stddev())
        .add(s->min())
        .add(s->max());
  }
}

class YieldWorkload final : public Workload {
 public:
  void setup(const Options& opt, Pools& pools) override {
    cfg_.geometry = opt.tiny ? sttram::ArrayGeometry{64, 64}
                             : sttram::ArrayGeometry{1024, 1024};
    cfg_.seed = opt.seed;
    cfg_.max_scatter_points = 1;  // as `sttram_cli yield` and campaigns
    // Warm the per-thread op caches, the SIMD dispatch and the allocator
    // on a 16-kb array.
    YieldConfig warm = cfg_;
    warm.geometry = sttram::ArrayGeometry::test_chip_16kb();
    sttram::run_yield_experiment(warm, &pools.t1);
    sttram::run_yield_experiment(warm, &pools.t4);
  }

  [[nodiscard]] double items_per_run() const override {
    return static_cast<double>(cfg_.geometry.cell_count());
  }

  std::string run(sttram::ParallelExecutor& exec) override {
    last_ = sttram::run_yield_experiment(cfg_, &exec);
    Digest d;
    for (const sttram::SchemeYield* y :
         {&last_.conventional, &last_.reference_cell, &last_.destructive,
          &last_.nondestructive}) {
      add_scheme(d, *y);
    }
    d.add(last_.shared_reference_window.value())
        .add(last_.shared_v_ref.value())
        .add(last_.beta_destructive)
        .add(last_.beta_nondestructive);
    return d.hex();
  }

  void verify(Pools&, Checks& checks) override {
    const std::size_t cells = cfg_.geometry.cell_count();
    for (const sttram::SchemeYield* y :
         {&last_.conventional, &last_.reference_cell, &last_.destructive,
          &last_.nondestructive}) {
      checks.expect(y->bits == cells && y->failures <= cells,
                    "yield: " + y->scheme + " bit count");
    }
    Tracer off;
    check_replay(replay_yield(cfg_, off), checks);
  }

  Metrics trace(Pools& pools, Tracer& tracer, Checks& checks,
                double budget_s) override {
    const std::size_t min_each = budget_s > 0.0 ? 3 : 1;
    std::string digests[2];
    const auto walls =
        alternate(2, 0.35 * budget_s, min_each, [&](std::size_t v) {
          tracer.begin_run();
          Tracer::Scope s(tracer, v == 0 ? "sim.run_yield_experiment.t1"
                                         : "sim.run_yield_experiment.t4");
          const std::string d =
              run(v == 0 ? static_cast<sttram::ParallelExecutor&>(pools.t1)
                         : pools.t4);
          if (digests[v].empty()) digests[v] = d;
          checks.expect(d == digests[v], "yield: traced runs disagree");
        });
    checks.expect(digests[0] == digests[1],
                  "yield: 1-thread and 4-thread digests differ");

    std::vector<double> sample_s, kernel_s;
    alternate(1, 0.35 * budget_s, min_each, [&](std::size_t) {
      tracer.begin_run();
      const std::size_t from = tracer.spans().size();
      check_replay(replay_yield(cfg_, tracer), checks);
      sample_s.push_back(
          tracer.total_since(from, "device.sample_variation_block"));
      kernel_s.push_back(tracer.total_since(from, "sense.kernel_solve"));
    });

    const auto obs_walls =
        alternate(2, 0.3 * budget_s, min_each, [&](std::size_t v) {
          set_telemetry(v == 0);
          sttram::run_yield_experiment(cfg_, &pools.t1);
        });
    set_telemetry(false);

    const double wall = median(walls[0]);
    const double sample = median(sample_s);
    const double kernel = median(kernel_s);
    const double residual = wall - sample - kernel;
    Metrics m;
    m["device.sample_s"] = {sample, "s"};
    m["device.sample.share"] = {sample / wall, "fraction"};
    m["sense.kernel_s"] = {kernel, "s"};
    m["sense.kernel.share"] = {kernel / wall, "fraction"};
    m["sim.yield.residual_s"] = {residual, "s"};
    m["sim.yield.residual.share"] = {residual / wall, "fraction"};
    m["sim.yield.t4_eff"] = {wall / (4.0 * median(walls[1])), "fraction"};
    m["obs.metrics_on_ratio.yield"] = {
        median(obs_walls[1]) / median(obs_walls[0]), "ratio"};
    return m;
  }

  void ladder_job(Pools&, Tracer& tracer) override {
    tracer.begin_run();
    replay_yield(cfg_, tracer);
  }

 private:
  void check_replay(std::size_t failures, Checks& checks) const {
    checks.expect(failures == last_.nondestructive.failures,
                  "yield: replayed nondestructive failures " +
                      std::to_string(failures) + " != run's " +
                      std::to_string(last_.nondestructive.failures));
  }

  YieldConfig cfg_;
  YieldResult last_;  ///< the latest run's result (replay reference)
};

}  // namespace

std::unique_ptr<Workload> make_yield_workload() {
  return std::make_unique<YieldWorkload>();
}

}  // namespace e2e
