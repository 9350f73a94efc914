// Built-in experiment kinds.  Each kind is three pieces, in this order:
// its ParamSchema (the one place its parameters' types, defaults and
// ranges are written), its builder (builders.hpp: validated params +
// seed -> library config, shared with `sttram_cli`) and its adapter (a
// thin, deterministic bridge from a ScenarioInstance to the experiment
// layers that returns a flat JSON object of metrics; see registry.hpp
// for the determinism contract).
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/fault/coverage.hpp"
#include "sttram/scenario/builders.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/sense/margins.hpp"

namespace sttram::scenario {

namespace {

/// Spelling and value of one enum choice.
template <class E>
struct Choice {
  const char* name;
  E value;
};

constexpr Choice<engine::SensingScheme> kSchemes[] = {
    {"conventional", engine::SensingScheme::kConventional},
    {"destructive", engine::SensingScheme::kDestructive},
    {"nondestructive", engine::SensingScheme::kNondestructive}};
constexpr Choice<engine::SchedulingPolicy> kPolicies[] = {
    {"fcfs", engine::SchedulingPolicy::kFcfs},
    {"read-priority", engine::SchedulingPolicy::kReadPriority}};
constexpr Choice<engine::WorkloadKind> kWorkloads[] = {
    {"poisson", engine::WorkloadKind::kPoisson},
    {"closed", engine::WorkloadKind::kClosedLoop}};
constexpr Choice<engine::controller::SchedulerPolicy> kSchedulers[] = {
    {"fcfs", engine::controller::SchedulerPolicy::kFcfs},
    {"frfcfs", engine::controller::SchedulerPolicy::kFrFcfs}};
constexpr Choice<ReadScheme> kReadSchemes[] = {
    {"conventional", ReadScheme::kConventional},
    {"destructive", ReadScheme::kDestructive},
    {"nondestructive", ReadScheme::kNondestructive}};

template <class E, std::size_t N>
std::vector<std::string> names_of(const Choice<E> (&choices)[N]) {
  std::vector<std::string> out;
  for (const Choice<E>& c : choices) out.emplace_back(c.name);
  return out;
}

template <class E, std::size_t N>
std::string name_of(const Choice<E> (&choices)[N], E value) {
  for (const Choice<E>& c : choices) {
    if (c.value == value) return c.name;
  }
  throw InvalidArgument("enum value without a schema spelling");
}

/// The value of a choice the schema has validated.
template <class E, std::size_t N>
E value_of(const Choice<E> (&choices)[N], const std::string& name) {
  for (const Choice<E>& c : choices) {
    if (name == c.name) return c.value;
  }
  throw InvalidArgument("unknown choice '" + name + "'");
}

/// A kind's validated params, read by its builder: a set value or the
/// schema default; `names` spells fields in messages.
struct Params {
  const ParamSchema& schema;
  const Json& values;
  const FieldNames& names;

  [[nodiscard]] const Json& at(const std::string& field) const {
    if (values.contains(field)) return values.at(field);
    const ParamField* f = schema.find(field);
    if (f == nullptr) {
      throw InvalidArgument("builder reads unknown parameter '" + field +
                            "'");
    }
    return f->fallback;
  }
  [[nodiscard]] bool has(const std::string& field) const {
    return values.contains(field);
  }
  [[nodiscard]] std::size_t count(const std::string& field) const {
    return static_cast<std::size_t>(at(field).as_integer());
  }
  [[nodiscard]] double number(const std::string& field) const {
    return at(field).as_number();
  }
  [[nodiscard]] bool boolean(const std::string& field) const {
    return at(field).as_bool();
  }
  [[nodiscard]] const std::string& choice(const std::string& field) const {
    return at(field).as_string();
  }
  [[nodiscard]] std::string name(const std::string& field) const {
    const auto it = names.find(field);
    return it != names.end() ? it->second : "'" + field + "'";
  }
};

constexpr Range kCount = Range::at_least(1);
constexpr Range kNonNegative = Range::at_least(0);
constexpr Range kFraction = Range::closed(0, 1);
/// Read attempts land in a uint32_t.
constexpr Range kAttempts =
    Range::closed(1, std::numeric_limits<std::uint32_t>::max());

/// Defaults no library struct carries, each written once.
constexpr double kFaultDensity = 0.01;  // fault_overlay and march
constexpr std::int64_t kMarchSide = 64;  // march rows and cols

// ---------------------------------------------------------------- yield

const ParamSchema& yield_schema() {
  static const ParamSchema s = [] {
    const YieldConfig d;
    return ParamSchema()
        .integer("rows", "array rows", d.geometry.rows, kCount)
        .integer("cols", "array columns", d.geometry.cols, kCount)
        .number("sigma_common", "common-mode (barrier) lognormal sigma",
                d.variation.sigma_common, kNonNegative)
        .number("sigma_tmr", "TMR lognormal sigma", d.variation.sigma_tmr,
                kNonNegative)
        .number("sigma_icrit", "critical-current relative sigma",
                d.variation.sigma_icrit, kNonNegative)
        .number("sigma_access", "access-device lognormal sigma",
                d.sigma_access, kNonNegative)
        .number("die_sigma", "die-to-die common factor sigma", d.die_sigma,
                kNonNegative)
        .number("required_margin_mv", "sense-amp margin requirement in mV",
                d.required_margin.value() * 1e3, kNonNegative)
        .integer("seed", "RNG seed; absent: forked from the campaign seed",
                 std::nullopt);
  }();
  return s;
}

}  // namespace

YieldConfig build_yield(const Json& params, std::uint64_t seed,
                        const FieldNames& names) {
  const Params p{yield_schema(), params, names};
  YieldConfig cfg;
  cfg.geometry = {p.count("rows"), p.count("cols")};
  cfg.variation.sigma_common = p.number("sigma_common");
  cfg.variation.sigma_tmr = p.number("sigma_tmr");
  cfg.variation.sigma_icrit = p.number("sigma_icrit");
  cfg.sigma_access = p.number("sigma_access");
  cfg.die_sigma = p.number("die_sigma");
  cfg.required_margin = Volt(p.number("required_margin_mv") * 1e-3);
  cfg.seed = seed;
  cfg.max_scatter_points = 1;
  return cfg;
}

namespace {

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
      run_yield_experiment(build_yield(inst.params, inst.seed), executor);
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

const ParamSchema& tail_schema() {
  static const ParamSchema s =
      ParamSchema()
          .number("threshold_mv", "failure threshold in mV",
                  TailConfig{}.threshold.value() * 1e3, kNonNegative)
          .integer("trials", "importance-sampling trials", 20000, kCount)
          .integer("seed", "RNG seed; absent: forked from the campaign seed",
                   std::nullopt);
  return s;
}

}  // namespace

TailSetup build_tail(const Json& params, std::uint64_t seed,
                     const FieldNames& names) {
  const Params p{tail_schema(), params, names};
  TailSetup out;
  out.config.threshold = Volt(p.number("threshold_mv") * 1e-3);
  out.seed = seed;
  out.trials = p.count("trials");
  return out;
}

namespace {

Json run_tail_kind(const ScenarioInstance& inst,
                   ParallelExecutor* executor) {
  const TailSetup t = build_tail(inst.params, inst.seed);
  const TailEstimate e =
      estimate_margin_tail(t.config, t.seed, t.trials, executor);
  Json metrics = Json::object();
  metrics.set("probability", Json::number(e.estimate.probability));
  metrics.set("std_error", Json::number(e.estimate.std_error));
  metrics.set("design_radius_sigma", Json::number(e.design_radius));
  metrics.set("expected_failures_16kb",
              Json::number(e.expected_failures_16kb));
  return metrics;
}

// ------------------------------------------------- traffic + controller

/// A traffic or controller schema: the workload fields both share, the
/// kind's own (`add_own`), then the shared fault-hook fields.
template <class Config, class AddOwn>
ParamSchema traffic_kind_schema(const Config& d, AddOwn add_own) {
  ParamSchema s;
  s.choice("scheme", "sensing scheme of every bank", names_of(kSchemes),
           name_of(kSchemes, d.scheme))
      .integer("requests", "total request count", d.requests, kCount)
      .number("rho", "per-bank offered load", d.utilization, Range::open(0, 1))
      .number("read_fraction", "fraction of reads", d.read_fraction, kFraction)
      .integer("word_bits", "bits per access", d.word_bits, kCount);
  add_own(s);
  return s
      .number("faults_ber",
              "per-bit read error rate; absent: the fault-free path",
              std::nullopt, kFraction)
      .boolean("ecc", "SECDED + retry recovery (needs faults_ber)", false)
      .integer("retry", "max read attempts with ECC",
               fault::TrafficFaultConfig{}.max_attempts, kAttempts)
      .integer("seed", "workload seed; absent: forked from the campaign seed",
               std::nullopt);
}

/// Reads the shared fields into either config and attaches the fault
/// hook when `faults_ber` is set.
template <class Config>
TrafficSetup<Config> build_traffic_common(const Params& p,
                                          std::uint64_t seed) {
  if (p.boolean("ecc") && !p.has("faults_ber")) {
    throw InvalidArgument(p.name("ecc") + " needs " + p.name("faults_ber"));
  }
  TrafficSetup<Config> out;
  Config& cfg = out.config;
  cfg.scheme = value_of(kSchemes, p.choice("scheme"));
  cfg.requests = p.count("requests");
  cfg.utilization = p.number("rho");
  cfg.read_fraction = p.number("read_fraction");
  cfg.word_bits = p.count("word_bits");
  cfg.seed = seed;
  if (p.has("faults_ber")) {
    out.faults = fault::make_traffic_fault_model(
        p.number("faults_ber"), p.boolean("ecc"),
        static_cast<std::uint32_t>(p.count("retry")), cfg.word_bits,
        cfg.scheme, cfg.cost, seed);
    cfg.faults = out.faults.get();
  }
  return out;
}

/// The metrics both traffic kinds report: latency, queueing, energy and,
/// when a fault hook ran, its counters.
template <class Report>
Json traffic_metrics(const Report& r) {
  const auto ns = [](Second s) { return Json::number(s.value() * 1e9); };
  const auto count = [](std::size_t v) {
    return Json::integer(static_cast<std::int64_t>(v));
  };
  Json m = Json::object();
  m.set("mean_latency_ns", ns(r.mean_latency));
  m.set("p50_latency_ns", ns(r.p50_latency));
  m.set("p90_latency_ns", ns(r.p90_latency));
  m.set("p99_latency_ns", ns(r.p99_latency));
  m.set("p999_latency_ns", ns(r.p999_latency));
  m.set("max_latency_ns", ns(r.max_latency));
  m.set("mean_queue_wait_ns", ns(r.mean_queue_wait));
  m.set("makespan_us", Json::number(r.makespan.value() * 1e6));
  m.set("peak_queue_depth", count(r.peak_queue_depth));
  m.set("energy_per_bit_pj", Json::number(r.energy_per_bit_pj));
  if (r.faults_enabled) {
    m.set("faults.raw_bit_errors", count(r.faults.raw_bit_errors));
    m.set("faults.retries", count(r.faults.retries));
    m.set("faults.corrected_words", count(r.faults.corrected_words));
    m.set("faults.uncorrectable_words", count(r.faults.uncorrectable_words));
    m.set("faults.silent_corruptions", count(r.faults.silent_corruptions));
  }
  return m;
}

// -------------------------------------------------------------- traffic

const ParamSchema& traffic_schema() {
  static const ParamSchema s = [] {
    const engine::TrafficConfig d;
    return traffic_kind_schema(d, [&](ParamSchema& own) {
      own.integer("banks", "bank count", d.banks, kCount)
          .choice("policy", "scheduling policy", names_of(kPolicies),
                  name_of(kPolicies, d.policy))
          .choice("workload", "request stream shape", names_of(kWorkloads),
                  name_of(kWorkloads, d.workload))
          .integer("clients", "closed-loop population", d.clients, kCount)
          .number("think_ns", "closed-loop mean think time in ns",
                  d.think_time.value() * 1e9, kNonNegative);
    });
  }();
  return s;
}

}  // namespace

TrafficSetup<engine::TrafficConfig> build_traffic(const Json& params,
                                                  std::uint64_t seed,
                                                  const FieldNames& names) {
  const Params p{traffic_schema(), params, names};
  TrafficSetup<engine::TrafficConfig> out =
      build_traffic_common<engine::TrafficConfig>(p, seed);
  engine::TrafficConfig& cfg = out.config;
  cfg.banks = p.count("banks");
  cfg.policy = value_of(kPolicies, p.choice("policy"));
  cfg.workload = value_of(kWorkloads, p.choice("workload"));
  cfg.clients = p.count("clients");
  cfg.think_time = Second(p.number("think_ns") * 1e-9);
  return out;
}

namespace {

Json run_traffic_kind(const ScenarioInstance& inst, ParallelExecutor*) {
  const TrafficSetup<engine::TrafficConfig> t =
      build_traffic(inst.params, inst.seed);
  const engine::TrafficReport r = engine::run_traffic(t.config);
  Json metrics = traffic_metrics(r);
  metrics.set("bandwidth_mbps", Json::number(r.sustained_bandwidth_mbps));
  metrics.set("avg_bank_utilization",
              Json::number(r.avg_bank_utilization));
  if (r.faults_enabled) {
    metrics.set("faults.recovery_latency_us",
                Json::number(r.faults.extra_latency.value() * 1e6));
  }
  return metrics;
}

// ----------------------------------------------------------- controller

const ParamSchema& controller_schema() {
  static const ParamSchema s = [] {
    const engine::controller::ControllerConfig d;
    return traffic_kind_schema(d, [&](ParamSchema& own) {
      own.integer("channels", "channel count (<= requests)", d.channels, kCount)
          .integer("ranks", "ranks per channel", d.ranks, kCount)
          .integer("banks", "banks per rank", d.banks, kCount)
          .integer("rows", "rows per bank", d.rows, kCount)
          .choice("scheduler", "command scheduler", names_of(kSchedulers),
                  name_of(kSchedulers, d.scheduler))
          .integer("starvation_cap", "FR-FCFS aging cap",
                   d.starvation_cap, kNonNegative)
          .boolean("coalescing", "MSHR-style read coalescing", d.coalescing)
          .number("row_locality", "P(reuse the bank's last row)",
                  d.row_locality, kFraction);
    });
  }();
  return s;
}

}  // namespace

TrafficSetup<engine::controller::ControllerConfig> build_controller(
    const Json& params, std::uint64_t seed, const FieldNames& names) {
  const Params p{controller_schema(), params, names};
  TrafficSetup<engine::controller::ControllerConfig> out =
      build_traffic_common<engine::controller::ControllerConfig>(p, seed);
  engine::controller::ControllerConfig& cfg = out.config;
  cfg.channels = p.count("channels");
  cfg.ranks = p.count("ranks");
  cfg.banks = p.count("banks");
  cfg.rows = p.count("rows");
  cfg.scheduler = value_of(kSchedulers, p.choice("scheduler"));
  cfg.starvation_cap = p.count("starvation_cap");
  cfg.coalescing = p.boolean("coalescing");
  cfg.row_locality = p.number("row_locality");
  if (cfg.requests < cfg.channels) {
    throw InvalidArgument(p.name("requests") + " must be at least " +
                          p.name("channels") + " (one request per channel)");
  }
  return out;
}

namespace {

Json run_controller_kind(const ScenarioInstance& inst,
                         ParallelExecutor* executor) {
  namespace ctrl = engine::controller;
  const TrafficSetup<ctrl::ControllerConfig> t =
      build_controller(inst.params, inst.seed);
  const ctrl::ControllerReport r =
      ctrl::run_controller_traffic(t.config, executor);
  Json metrics = traffic_metrics(r);
  metrics.set("row_hit_rate", Json::number(r.row_hit_rate));
  metrics.set("row_conflicts",
              Json::integer(static_cast<std::int64_t>(r.row_conflicts)));
  metrics.set("coalesced_reads",
              Json::integer(static_cast<std::int64_t>(r.coalesced_reads)));
  metrics.set("starvation_promotions",
              Json::integer(static_cast<std::int64_t>(
                  r.starvation_promotions)));
  metrics.set("bandwidth_mbps", Json::number(r.total_bandwidth_mbps));
  return metrics;
}

// -------------------------------------------------------- fault_overlay

const ParamSchema& fault_overlay_schema() {
  static const ParamSchema s = [] {
    const YieldConfig d;
    return ParamSchema()
        .integer("rows", "array rows", d.geometry.rows, kCount)
        .integer("cols", "array columns", d.geometry.cols, kCount)
        .number("density", "total fault density", kFaultDensity, kFraction)
        .number("sigma_common", "common-mode lognormal sigma",
                d.variation.sigma_common, kNonNegative)
        .boolean("ecc", "SECDED(72,64)", false)
        .integer("retry", "read attempts", fault::BerConfig{}.read_attempts,
                 kAttempts)
        .integer("seed", "RNG seed; absent: forked from the campaign seed",
                 std::nullopt);
  }();
  return s;
}

}  // namespace

FaultOverlaySetup build_fault_overlay(const Json& params, std::uint64_t seed,
                                      const FieldNames& names) {
  const Params p{fault_overlay_schema(), params, names};
  FaultOverlaySetup out;
  out.yield.geometry = {p.count("rows"), p.count("cols")};
  out.yield.variation.sigma_common = p.number("sigma_common");
  out.yield.seed = seed;
  out.yield.max_scatter_points = 1;
  out.faults = fault::FaultConfig::with_total_density(p.number("density"));
  out.ber.ecc = p.boolean("ecc");
  out.ber.read_attempts = static_cast<std::uint32_t>(p.count("retry"));
  return out;
}

namespace {

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
  const FaultOverlaySetup f = build_fault_overlay(inst.params, inst.seed);
  const fault::FaultYieldResult r =
      fault::run_yield_with_faults(f.yield, f.faults, f.ber, executor);
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

const ParamSchema& margin_sweep_schema() {
  static const ParamSchema s = [] {
    const SelfRefConfig d;
    return ParamSchema()
        .choice("scheme", "self-reference scheme under sweep",
                {"destructive", "nondestructive"}, "nondestructive")
        .number("beta_lo", "lowest current ratio", 1.05, Range::above(0))
        .number("beta_hi", "highest current ratio (> beta_lo)", 4.0,
                Range::above(0))
        .integer("steps", "grid points", 60, Range::at_least(2))
        .number("alpha", "divider ratio (nondestructive)", d.alpha,
                Range{0, 1, true, false})
        .number("i_max_ua", "second-read current in uA",
                d.i_max.value() * 1e6, Range::above(0));
  }();
  return s;
}

Json run_margin_sweep_kind(const ScenarioInstance& inst,
                           ParallelExecutor*) {
  const FieldNames names;
  const Params p{margin_sweep_schema(), inst.params, names};
  const double beta_lo = p.number("beta_lo");
  const double beta_hi = p.number("beta_hi");
  const std::size_t steps = p.count("steps");
  if (!(beta_hi > beta_lo)) {
    throw InvalidArgument(p.name("beta_hi") + " must exceed " +
                          p.name("beta_lo"));
  }
  SelfRefConfig config;
  config.alpha = p.number("alpha");
  config.i_max = Ampere(p.number("i_max_ua") * 1e-6);
  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const bool destructive = p.choice("scheme") == "destructive";
  std::unique_ptr<SelfReferenceScheme> scheme;
  if (destructive) {
    scheme =
        std::make_unique<DestructiveSelfReference>(mtj, r_t, config);
  } else {
    scheme =
        std::make_unique<NondestructiveSelfReference>(mtj, r_t, config);
  }

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
      destructive
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

const ParamSchema& march_schema() {
  static const ParamSchema s =
      ParamSchema()
          .integer("rows", "array rows", kMarchSide, kCount)
          .integer("cols", "array columns", kMarchSide, kCount)
          .number("density", "total fault density", kFaultDensity, kFraction)
          .choice("scheme", "read scheme of the tester",
                  names_of(kReadSchemes), "nondestructive")
          .integer("seed",
                   "fault-map seed; absent: forked from the campaign seed",
                   std::nullopt);
  return s;
}

}  // namespace

MarchSetup build_march(const Json& params, std::uint64_t seed,
                       const FieldNames& names) {
  const Params p{march_schema(), params, names};
  MarchSetup out;
  out.geometry = {p.count("rows"), p.count("cols")};
  out.faults = fault::FaultConfig::with_total_density(p.number("density"));
  out.scheme = value_of(kReadSchemes, p.choice("scheme"));
  out.seed = seed;
  return out;
}

namespace {

Json run_march_kind(const ScenarioInstance& inst,
                    ParallelExecutor* executor) {
  const MarchSetup m = build_march(inst.params, inst.seed);
  const fault::FaultMap map =
      fault::generate_fault_map(m.geometry, m.faults, m.seed, executor);
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());
  TestableArray array(m.geometry, variation, m.seed, SelfRefConfig{},
                      Volt(0.0));
  const fault::MarchCoverageReport report =
      fault::run_march_with_faults(array, map, m.scheme);
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
