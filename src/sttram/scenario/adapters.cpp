// Built-in experiment-kind adapters: thin, deterministic bridges from a
// validated ScenarioInstance to the existing experiment layers.  Each
// adapter returns a flat JSON object of metrics; see registry.hpp for
// the determinism contract.
#include <cmath>
#include <memory>
#include <string>

#include "sttram/common/error.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/fault/coverage.hpp"
#include "sttram/fault/fault_model.hpp"
#include "sttram/fault/traffic_faults.hpp"
#include "sttram/fault/yield_overlay.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"

namespace sttram::scenario {

namespace {

// ---------------------------------------------------------------- yield

ParamSchema yield_schema() {
  ParamSchema s;
  s.field("rows", ParamType::kInteger, "array rows (default 128)")
      .field("cols", ParamType::kInteger, "array columns (default 128)")
      .field("sigma_common", ParamType::kNumber,
             "common-mode (barrier) lognormal sigma (default 0.06)")
      .field("sigma_tmr", ParamType::kNumber,
             "TMR lognormal sigma (default 0.015)")
      .field("sigma_icrit", ParamType::kNumber,
             "critical-current relative sigma (default 0.05)")
      .field("sigma_access", ParamType::kNumber,
             "access-device lognormal sigma (default 0.02)")
      .field("die_sigma", ParamType::kNumber,
             "die-to-die common factor sigma (default 0)")
      .field("required_margin_mv", ParamType::kNumber,
             "sense-amp margin requirement in mV (default 8)")
      .field("seed", ParamType::kInteger,
             "RNG seed (default: forked from the campaign seed)");
  return s;
}

YieldConfig yield_config_from(const ScenarioInstance& inst) {
  YieldConfig cfg;
  cfg.geometry = {static_cast<std::size_t>(
                      param_int(inst.params, "rows", 128)),
                  static_cast<std::size_t>(
                      param_int(inst.params, "cols", 128))};
  require(cfg.geometry.rows > 0 && cfg.geometry.cols > 0,
          "scenario '" + inst.name + "': rows/cols must be > 0");
  cfg.variation.sigma_common =
      param_number(inst.params, "sigma_common", cfg.variation.sigma_common);
  cfg.variation.sigma_tmr =
      param_number(inst.params, "sigma_tmr", cfg.variation.sigma_tmr);
  cfg.variation.sigma_icrit =
      param_number(inst.params, "sigma_icrit", cfg.variation.sigma_icrit);
  cfg.sigma_access =
      param_number(inst.params, "sigma_access", cfg.sigma_access);
  cfg.die_sigma = param_number(inst.params, "die_sigma", cfg.die_sigma);
  cfg.required_margin = Volt(
      param_number(inst.params, "required_margin_mv", 8.0) * 1e-3);
  cfg.seed = inst.seed;
  cfg.max_scatter_points = 1;
  return cfg;
}

void add_scheme_yield(Json& metrics, const SchemeYield& y,
                      const std::string& prefix) {
  metrics.set(prefix + ".failures",
              Json::integer(static_cast<std::int64_t>(y.failures)));
  metrics.set(prefix + ".failure_rate", Json::number(y.failure_rate()));
  metrics.set(prefix + ".sm_min_volts",
              Json::number(std::min(y.sm0_stats.min(), y.sm1_stats.min())));
}

Json run_yield_kind(const ScenarioInstance& inst,
                    ParallelExecutor* executor) {
  const YieldResult r =
      run_yield_experiment(yield_config_from(inst), executor);
  Json metrics = Json::object();
  add_scheme_yield(metrics, r.conventional, "conventional");
  add_scheme_yield(metrics, r.reference_cell, "reference_cell");
  add_scheme_yield(metrics, r.destructive, "destructive");
  add_scheme_yield(metrics, r.nondestructive, "nondestructive");
  metrics.set("shared_reference_window_volts",
              Json::number(r.shared_reference_window.value()));
  return metrics;
}

// ----------------------------------------------------------------- tail

ParamSchema tail_schema() {
  ParamSchema s;
  s.field("threshold_mv", ParamType::kNumber,
          "failure threshold in mV (default 8)")
      .field("trials", ParamType::kInteger,
             "importance-sampling trials (default 20000)")
      .field("seed", ParamType::kInteger,
             "RNG seed (default: forked from the campaign seed)");
  return s;
}

Json run_tail_kind(const ScenarioInstance& inst,
                   ParallelExecutor* executor) {
  TailConfig cfg;
  cfg.threshold =
      Volt(param_number(inst.params, "threshold_mv", 8.0) * 1e-3);
  const auto trials = static_cast<std::size_t>(
      param_int(inst.params, "trials", 20000));
  const TailEstimate e =
      estimate_margin_tail(cfg, inst.seed, trials, executor);
  Json metrics = Json::object();
  metrics.set("probability", Json::number(e.estimate.probability));
  metrics.set("std_error", Json::number(e.estimate.std_error));
  metrics.set("design_radius_sigma", Json::number(e.design_radius));
  metrics.set("expected_failures_16kb",
              Json::number(e.expected_failures_16kb));
  return metrics;
}

// -------------------------------------------------------------- traffic

ParamSchema traffic_schema() {
  ParamSchema s;
  s.field("scheme", ParamType::kEnum, "sensing scheme of every bank",
          {"conventional", "destructive", "nondestructive"})
      .field("banks", ParamType::kInteger, "bank count (default 4)")
      .field("policy", ParamType::kEnum, "scheduling policy (default fcfs)",
             {"fcfs", "read-priority"})
      .field("workload", ParamType::kEnum,
             "request stream shape (default poisson)",
             {"poisson", "closed"})
      .field("requests", ParamType::kInteger,
             "request count (default 100000)")
      .field("rho", ParamType::kNumber,
             "per-bank offered load (poisson, default 0.6)")
      .field("read_fraction", ParamType::kNumber,
             "fraction of reads (default 0.7)")
      .field("clients", ParamType::kInteger,
             "closed-loop population (default 8)")
      .field("think_ns", ParamType::kNumber,
             "closed-loop think time in ns (default 50)")
      .field("word_bits", ParamType::kInteger,
             "bits per access (default 32)")
      .field("faults_ber", ParamType::kNumber,
             "per-bit read error rate (default: fault-free path)")
      .field("ecc", ParamType::kBool,
             "SECDED + retry recovery (default false)")
      .field("retry", ParamType::kInteger,
             "max read attempts with ECC (default 3)")
      .field("seed", ParamType::kInteger,
             "workload seed (default: forked from the campaign seed)");
  return s;
}

Json run_traffic_kind(const ScenarioInstance& inst, ParallelExecutor*) {
  engine::TrafficConfig cfg;
  const std::string scheme =
      param_string(inst.params, "scheme", "nondestructive");
  require(engine::parse_scheme(scheme, cfg.scheme),
          "scenario '" + inst.name + "': unknown scheme '" + scheme + "'");
  cfg.banks =
      static_cast<std::size_t>(param_int(inst.params, "banks", 4));
  cfg.policy = param_string(inst.params, "policy", "fcfs") == "fcfs"
                   ? engine::SchedulingPolicy::kFcfs
                   : engine::SchedulingPolicy::kReadPriority;
  cfg.workload =
      param_string(inst.params, "workload", "poisson") == "poisson"
          ? engine::WorkloadKind::kPoisson
          : engine::WorkloadKind::kClosedLoop;
  cfg.requests =
      static_cast<std::size_t>(param_int(inst.params, "requests", 100000));
  cfg.utilization = param_number(inst.params, "rho", cfg.utilization);
  cfg.read_fraction =
      param_number(inst.params, "read_fraction", cfg.read_fraction);
  cfg.clients =
      static_cast<std::size_t>(param_int(inst.params, "clients", 8));
  cfg.think_time =
      Second(param_number(inst.params, "think_ns", 50.0) * 1e-9);
  cfg.word_bits =
      static_cast<std::size_t>(param_int(inst.params, "word_bits", 32));
  cfg.seed = inst.seed;

  const double ber = param_number(inst.params, "faults_ber", -1.0);
  std::unique_ptr<fault::TrafficFaultModel> faults;
  if (ber >= 0.0) {
    fault::TrafficFaultConfig fc;
    fc.raw_ber = ber;
    fc.ecc = param_bool(inst.params, "ecc", false);
    fc.max_attempts = static_cast<std::uint32_t>(
        param_int(inst.params, "retry", 3));
    require(fc.max_attempts >= 1,
            "scenario '" + inst.name + "': retry must be >= 1");
    const engine::BankTiming timing =
        engine::scheme_bank_timing(cfg.scheme, cfg.cost);
    fc.retry_latency = timing.read_service;
    fc.retry_energy = timing.read_energy;
    fc.seed = cfg.seed ^ 0x5717fa7ee1dULL;  // matches `sttram_cli traffic`
    faults = std::make_unique<fault::TrafficFaultModel>(fc);
    cfg.faults = faults.get();
  }

  const engine::TrafficReport r = engine::run_traffic(cfg);
  const auto ns = [](Second s) { return s.value() * 1e9; };
  Json metrics = Json::object();
  metrics.set("mean_latency_ns", Json::number(ns(r.mean_latency)));
  metrics.set("p50_latency_ns", Json::number(ns(r.p50_latency)));
  metrics.set("p90_latency_ns", Json::number(ns(r.p90_latency)));
  metrics.set("p99_latency_ns", Json::number(ns(r.p99_latency)));
  metrics.set("p999_latency_ns", Json::number(ns(r.p999_latency)));
  metrics.set("max_latency_ns", Json::number(ns(r.max_latency)));
  metrics.set("mean_queue_wait_ns", Json::number(ns(r.mean_queue_wait)));
  metrics.set("makespan_us", Json::number(r.makespan.value() * 1e6));
  metrics.set("bandwidth_mbps", Json::number(r.sustained_bandwidth_mbps));
  metrics.set("avg_bank_utilization",
              Json::number(r.avg_bank_utilization));
  metrics.set("peak_queue_depth",
              Json::integer(static_cast<std::int64_t>(r.peak_queue_depth)));
  metrics.set("energy_per_bit_pj", Json::number(r.energy_per_bit_pj));
  if (r.faults_enabled) {
    metrics.set("faults.raw_bit_errors",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.raw_bit_errors)));
    metrics.set("faults.retries",
                Json::integer(static_cast<std::int64_t>(r.faults.retries)));
    metrics.set("faults.corrected_words",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.corrected_words)));
    metrics.set("faults.uncorrectable_words",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.uncorrectable_words)));
    metrics.set("faults.silent_corruptions",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.silent_corruptions)));
    metrics.set("faults.recovery_latency_us",
                Json::number(r.faults.extra_latency.value() * 1e6));
  }
  return metrics;
}

// ----------------------------------------------------------- controller

ParamSchema controller_schema() {
  ParamSchema s;
  s.field("scheme", ParamType::kEnum, "sensing scheme of every bank",
          {"conventional", "destructive", "nondestructive"})
      .field("channels", ParamType::kInteger, "channel count (default 4)")
      .field("ranks", ParamType::kInteger,
             "ranks per channel (default 2)")
      .field("banks", ParamType::kInteger, "banks per rank (default 8)")
      .field("rows", ParamType::kInteger, "rows per bank (default 64)")
      .field("scheduler", ParamType::kEnum,
             "command scheduler (default frfcfs)", {"fcfs", "frfcfs"})
      .field("starvation_cap", ParamType::kInteger,
             "FR-FCFS aging cap (default 8)")
      .field("coalescing", ParamType::kBool,
             "MSHR-style read coalescing (default true)")
      .field("requests", ParamType::kInteger,
             "total request count (default 100000)")
      .field("rho", ParamType::kNumber,
             "per-bank offered load (default 0.6)")
      .field("row_locality", ParamType::kNumber,
             "P(reuse the bank's last row) (default 0.6)")
      .field("read_fraction", ParamType::kNumber,
             "fraction of reads (default 0.7)")
      .field("word_bits", ParamType::kInteger,
             "bits per access (default 32)")
      .field("faults_ber", ParamType::kNumber,
             "per-bit read error rate (default: fault-free path)")
      .field("ecc", ParamType::kBool,
             "SECDED + retry recovery (default false)")
      .field("retry", ParamType::kInteger,
             "max read attempts with ECC (default 3)")
      .field("seed", ParamType::kInteger,
             "workload seed (default: forked from the campaign seed)");
  return s;
}

Json run_controller_kind(const ScenarioInstance& inst,
                         ParallelExecutor* executor) {
  namespace ctrl = engine::controller;
  ctrl::ControllerConfig cfg;
  const std::string scheme =
      param_string(inst.params, "scheme", "nondestructive");
  require(engine::parse_scheme(scheme, cfg.scheme),
          "scenario '" + inst.name + "': unknown scheme '" + scheme + "'");
  cfg.channels =
      static_cast<std::size_t>(param_int(inst.params, "channels", 4));
  cfg.ranks = static_cast<std::size_t>(param_int(inst.params, "ranks", 2));
  cfg.banks = static_cast<std::size_t>(param_int(inst.params, "banks", 8));
  cfg.rows = static_cast<std::size_t>(param_int(inst.params, "rows", 64));
  const std::string scheduler =
      param_string(inst.params, "scheduler", "frfcfs");
  require(ctrl::parse_scheduler(scheduler, cfg.scheduler),
          "scenario '" + inst.name + "': unknown scheduler '" + scheduler +
              "'");
  cfg.starvation_cap = static_cast<std::size_t>(
      param_int(inst.params, "starvation_cap", 8));
  cfg.coalescing = param_bool(inst.params, "coalescing", true);
  cfg.requests =
      static_cast<std::size_t>(param_int(inst.params, "requests", 100000));
  cfg.utilization = param_number(inst.params, "rho", cfg.utilization);
  cfg.row_locality =
      param_number(inst.params, "row_locality", cfg.row_locality);
  cfg.read_fraction =
      param_number(inst.params, "read_fraction", cfg.read_fraction);
  cfg.word_bits =
      static_cast<std::size_t>(param_int(inst.params, "word_bits", 32));
  cfg.seed = inst.seed;

  const double ber = param_number(inst.params, "faults_ber", -1.0);
  std::unique_ptr<fault::TrafficFaultModel> faults;
  if (ber >= 0.0) {
    fault::TrafficFaultConfig fc;
    fc.raw_ber = ber;
    fc.ecc = param_bool(inst.params, "ecc", false);
    fc.max_attempts = static_cast<std::uint32_t>(
        param_int(inst.params, "retry", 3));
    require(fc.max_attempts >= 1,
            "scenario '" + inst.name + "': retry must be >= 1");
    const engine::BankTiming timing =
        engine::scheme_bank_timing(cfg.scheme, cfg.cost);
    fc.retry_latency = timing.read_service;
    fc.retry_energy = timing.read_energy;
    fc.seed = cfg.seed ^ 0x5717fa7ee1dULL;  // matches `sttram_cli traffic`
    faults = std::make_unique<fault::TrafficFaultModel>(fc);
    cfg.faults = faults.get();
  }

  const ctrl::ControllerReport r =
      ctrl::run_controller_traffic(cfg, executor);
  const auto ns = [](Second s) { return s.value() * 1e9; };
  Json metrics = Json::object();
  metrics.set("mean_latency_ns", Json::number(ns(r.mean_latency)));
  metrics.set("p50_latency_ns", Json::number(ns(r.p50_latency)));
  metrics.set("p90_latency_ns", Json::number(ns(r.p90_latency)));
  metrics.set("p99_latency_ns", Json::number(ns(r.p99_latency)));
  metrics.set("p999_latency_ns", Json::number(ns(r.p999_latency)));
  metrics.set("max_latency_ns", Json::number(ns(r.max_latency)));
  metrics.set("mean_queue_wait_ns", Json::number(ns(r.mean_queue_wait)));
  metrics.set("makespan_us", Json::number(r.makespan.value() * 1e6));
  metrics.set("row_hit_rate", Json::number(r.row_hit_rate));
  metrics.set("row_conflicts",
              Json::integer(static_cast<std::int64_t>(r.row_conflicts)));
  metrics.set("coalesced_reads",
              Json::integer(static_cast<std::int64_t>(r.coalesced_reads)));
  metrics.set("starvation_promotions",
              Json::integer(static_cast<std::int64_t>(
                  r.starvation_promotions)));
  metrics.set("peak_queue_depth",
              Json::integer(static_cast<std::int64_t>(r.peak_queue_depth)));
  metrics.set("bandwidth_mbps", Json::number(r.total_bandwidth_mbps));
  metrics.set("energy_per_bit_pj", Json::number(r.energy_per_bit_pj));
  if (r.faults_enabled) {
    metrics.set("faults.raw_bit_errors",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.raw_bit_errors)));
    metrics.set("faults.retries",
                Json::integer(static_cast<std::int64_t>(r.faults.retries)));
    metrics.set("faults.corrected_words",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.corrected_words)));
    metrics.set("faults.uncorrectable_words",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.uncorrectable_words)));
    metrics.set("faults.silent_corruptions",
                Json::integer(static_cast<std::int64_t>(
                    r.faults.silent_corruptions)));
  }
  return metrics;
}

// -------------------------------------------------------- fault_overlay

ParamSchema fault_overlay_schema() {
  ParamSchema s;
  s.field("rows", ParamType::kInteger, "array rows (default 128)")
      .field("cols", ParamType::kInteger, "array columns (default 128)")
      .field("density", ParamType::kNumber,
             "total fault density (default 0.01)")
      .field("sigma_common", ParamType::kNumber,
             "common-mode lognormal sigma (default 0.06)")
      .field("ecc", ParamType::kBool, "SECDED(72,64) (default false)")
      .field("retry", ParamType::kInteger, "read attempts (default 1)")
      .field("seed", ParamType::kInteger,
             "RNG seed (default: forked from the campaign seed)");
  return s;
}

void add_scheme_ber(Json& metrics, const fault::SchemeBer& s,
                    const std::string& prefix) {
  metrics.set(prefix + ".raw_ber", Json::number(s.raw_ber));
  metrics.set(prefix + ".hard_bit_fraction",
              Json::number(s.hard_bit_fraction));
  metrics.set(prefix + ".post_ecc_wer", Json::number(s.post_ecc_wer));
  metrics.set(prefix + ".post_ecc_ber", Json::number(s.post_ecc_ber));
}

Json run_fault_overlay_kind(const ScenarioInstance& inst,
                            ParallelExecutor* executor) {
  YieldConfig cfg;
  cfg.geometry = {static_cast<std::size_t>(
                      param_int(inst.params, "rows", 128)),
                  static_cast<std::size_t>(
                      param_int(inst.params, "cols", 128))};
  require(cfg.geometry.rows > 0 && cfg.geometry.cols > 0,
          "scenario '" + inst.name + "': rows/cols must be > 0");
  cfg.variation.sigma_common =
      param_number(inst.params, "sigma_common", cfg.variation.sigma_common);
  cfg.seed = inst.seed;
  cfg.max_scatter_points = 1;
  const fault::FaultConfig faults = fault::FaultConfig::with_total_density(
      param_number(inst.params, "density", 0.01));
  fault::BerConfig ber;
  ber.ecc = param_bool(inst.params, "ecc", false);
  ber.read_attempts = static_cast<std::uint32_t>(
      param_int(inst.params, "retry", 1));
  require(ber.read_attempts >= 1,
          "scenario '" + inst.name + "': retry must be >= 1");
  const fault::FaultYieldResult r =
      fault::run_yield_with_faults(cfg, faults, ber, executor);
  Json metrics = Json::object();
  metrics.set("faulty_bits",
              Json::integer(static_cast<std::int64_t>(r.faulty_bits)));
  add_scheme_ber(metrics, r.conventional, "conventional");
  add_scheme_ber(metrics, r.reference_cell, "reference_cell");
  add_scheme_ber(metrics, r.destructive, "destructive");
  add_scheme_ber(metrics, r.nondestructive, "nondestructive");
  return metrics;
}

// --------------------------------------------------------- margin_sweep

ParamSchema margin_sweep_schema() {
  ParamSchema s;
  s.field("scheme", ParamType::kEnum, "self-reference scheme under sweep",
          {"destructive", "nondestructive"})
      .field("beta_lo", ParamType::kNumber,
             "lowest current ratio (default 1.05)")
      .field("beta_hi", ParamType::kNumber,
             "highest current ratio (default 4.0)")
      .field("steps", ParamType::kInteger, "grid points (default 60)")
      .field("alpha", ParamType::kNumber,
             "divider ratio (nondestructive, default 0.5)")
      .field("i_max_ua", ParamType::kNumber,
             "second-read current in uA (default 200)");
  return s;
}

Json run_margin_sweep_kind(const ScenarioInstance& inst,
                           ParallelExecutor*) {
  SelfRefConfig config;
  config.alpha = param_number(inst.params, "alpha", config.alpha);
  config.i_max =
      Ampere(param_number(inst.params, "i_max_ua", 200.0) * 1e-6);
  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  std::unique_ptr<SelfReferenceScheme> scheme;
  if (param_string(inst.params, "scheme", "nondestructive") ==
      "destructive") {
    scheme =
        std::make_unique<DestructiveSelfReference>(mtj, r_t, config);
  } else {
    scheme =
        std::make_unique<NondestructiveSelfReference>(mtj, r_t, config);
  }

  const double beta_lo = param_number(inst.params, "beta_lo", 1.05);
  const double beta_hi = param_number(inst.params, "beta_hi", 4.0);
  const auto steps =
      static_cast<std::size_t>(param_int(inst.params, "steps", 60));
  require(steps >= 2 && beta_hi > beta_lo,
          "scenario '" + inst.name +
              "': want steps >= 2 and beta_hi > beta_lo");

  double best_beta = beta_lo;
  double best_min = -1e30;
  std::size_t positive_points = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double beta =
        beta_lo + (beta_hi - beta_lo) * static_cast<double>(i) /
                      static_cast<double>(steps - 1);
    const SenseMargins m = scheme->margins(beta);
    const double lo = m.min().value();
    if (m.positive()) ++positive_points;
    if (lo > best_min) {
      best_min = lo;
      best_beta = beta;
    }
  }
  const double paper_beta =
      param_string(inst.params, "scheme", "nondestructive") == "destructive"
          ? static_cast<DestructiveSelfReference&>(*scheme).paper_beta()
          : static_cast<NondestructiveSelfReference&>(*scheme).paper_beta();
  const SenseMargins at_paper = scheme->margins(paper_beta);
  Json metrics = Json::object();
  metrics.set("paper_beta", Json::number(paper_beta));
  metrics.set("sm0_at_paper_beta_mv",
              Json::number(at_paper.sm0.value() * 1e3));
  metrics.set("sm1_at_paper_beta_mv",
              Json::number(at_paper.sm1.value() * 1e3));
  metrics.set("best_beta", Json::number(best_beta));
  metrics.set("best_min_margin_mv", Json::number(best_min * 1e3));
  metrics.set("positive_margin_points",
              Json::integer(static_cast<std::int64_t>(positive_points)));
  metrics.set("grid_points",
              Json::integer(static_cast<std::int64_t>(steps)));
  return metrics;
}

// ---------------------------------------------------------------- march

ParamSchema march_schema() {
  ParamSchema s;
  s.field("rows", ParamType::kInteger, "array rows (default 64)")
      .field("cols", ParamType::kInteger, "array columns (default 64)")
      .field("density", ParamType::kNumber,
             "total fault density (default 0.01)")
      .field("scheme", ParamType::kEnum, "read scheme of the tester",
             {"conventional", "destructive", "nondestructive"})
      .field("seed", ParamType::kInteger,
             "fault-map seed (default: forked from the campaign seed)");
  return s;
}

Json run_march_kind(const ScenarioInstance& inst,
                    ParallelExecutor* executor) {
  const ArrayGeometry geometry{
      static_cast<std::size_t>(param_int(inst.params, "rows", 64)),
      static_cast<std::size_t>(param_int(inst.params, "cols", 64))};
  require(geometry.rows > 0 && geometry.cols > 0,
          "scenario '" + inst.name + "': rows/cols must be > 0");
  const fault::FaultConfig config = fault::FaultConfig::with_total_density(
      param_number(inst.params, "density", 0.01));
  const fault::FaultMap map =
      fault::generate_fault_map(geometry, config, inst.seed, executor);
  const std::string scheme_name =
      param_string(inst.params, "scheme", "nondestructive");
  const ReadScheme scheme =
      scheme_name == "conventional"  ? ReadScheme::kConventional
      : scheme_name == "destructive" ? ReadScheme::kDestructive
                                     : ReadScheme::kNondestructive;
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());
  TestableArray array(geometry, variation, inst.seed, SelfRefConfig{},
                      Volt(0.0));
  const fault::MarchCoverageReport report =
      fault::run_march_with_faults(array, map, scheme);
  Json metrics = Json::object();
  metrics.set("operations", Json::integer(static_cast<std::int64_t>(
                                report.operations)));
  metrics.set("injected", Json::integer(static_cast<std::int64_t>(
                              report.injected_cells)));
  metrics.set("detected", Json::integer(static_cast<std::int64_t>(
                              report.detected_cells)));
  metrics.set("coverage", Json::number(report.coverage()));
  metrics.set("extra_flags", Json::integer(static_cast<std::int64_t>(
                                 report.extra_flags)));
  return metrics;
}

}  // namespace

void register_builtin_kinds() {
  Registry& r = Registry::instance();
  if (r.find("yield") != nullptr) return;  // already registered
  r.register_kind({"yield",
                   "Fig. 11 Monte-Carlo array yield across the four "
                   "sensing schemes",
                   yield_schema(), run_yield_kind});
  r.register_kind({"tail",
                   "importance-sampled rare-event margin-tail estimate",
                   tail_schema(), run_tail_kind});
  r.register_kind({"traffic",
                   "discrete-event multi-bank traffic simulation "
                   "(optional fault/ECC overlay)",
                   traffic_schema(), run_traffic_kind});
  r.register_kind({"controller",
                   "chip-scale controller traffic: channels x ranks x "
                   "banks, FR-FCFS command scheduling",
                   controller_schema(), run_controller_kind});
  r.register_kind({"fault_overlay",
                   "yield experiment + fault map -> raw vs post-ECC BER "
                   "per scheme",
                   fault_overlay_schema(), run_fault_overlay_kind});
  r.register_kind({"margin_sweep",
                   "analytic sense-margin sweep over the current ratio "
                   "beta",
                   margin_sweep_schema(), run_margin_sweep_kind});
  r.register_kind({"march",
                   "fault map + March C- detection coverage with a "
                   "chosen read scheme",
                   march_schema(), run_march_kind});
}

}  // namespace sttram::scenario
