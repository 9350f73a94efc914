// campaign_suite: run_campaign over the four bundled campaigns (41
// instances across all seven experiment kinds) — many small arrays and
// traffic runs instead of one big one, so per-instance set-up and
// cross-instance parallelism matter, and the scenario, io.json and
// bank_sim layers are on the path.
#include <algorithm>

#include "harness.hpp"
#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/scenario/schema.hpp"
#include "sttram/stats/rng.hpp"
#include "yield_kernel.hpp"

namespace e2e {
namespace {

namespace sc = sttram::scenario;
using sttram::Json;

const char* const kCampaigns[] = {"smoke", "fig11_yield", "controller",
                                  "traffic_fault_sweep"};
// Every kind the bundled campaigns cover, so each gets a metric even when
// a tiny pass skips some.
const char* const kKinds[] = {"yield",         "tail",         "traffic",
                              "controller",    "fault_overlay", "margin_sweep",
                              "march"};

/// A seed derived from the benchmark seed and a committed one.
std::int64_t derive_seed(std::uint64_t bench_seed, std::int64_t committed) {
  sttram::SplitMix64 sm(bench_seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(committed));
  return static_cast<std::int64_t>(sm.next_u64() >> 2);
}

/// Replaces every seed of `spec` (the campaign seed and any pinned in
/// defaults or params) with one derived from the benchmark seed.
sc::CampaignSpec reseed(sc::CampaignSpec spec, std::uint64_t bench_seed) {
  spec.seed = static_cast<std::uint64_t>(
      derive_seed(bench_seed, static_cast<std::int64_t>(spec.seed)));
  const auto fix = [&](Json& params) {
    if (params.contains("seed")) {
      params.set("seed", Json::integer(derive_seed(
                             bench_seed, params.at("seed").as_integer())));
    }
  };
  fix(spec.defaults);
  for (sc::ScenarioSpec& s : spec.scenarios) fix(s.params);
  return spec;
}

/// The YieldConfig the `yield` kind builds from an instance.
sttram::YieldConfig yield_config_of(const sc::ScenarioInstance& inst) {
  sttram::YieldConfig cfg;
  cfg.geometry = {
      static_cast<std::size_t>(sc::param_int(inst.params, "rows", 128)),
      static_cast<std::size_t>(sc::param_int(inst.params, "cols", 128))};
  cfg.variation.sigma_common = sc::param_number(
      inst.params, "sigma_common", cfg.variation.sigma_common);
  cfg.variation.sigma_tmr =
      sc::param_number(inst.params, "sigma_tmr", cfg.variation.sigma_tmr);
  cfg.variation.sigma_icrit = sc::param_number(inst.params, "sigma_icrit",
                                               cfg.variation.sigma_icrit);
  cfg.sigma_access =
      sc::param_number(inst.params, "sigma_access", cfg.sigma_access);
  cfg.die_sigma = sc::param_number(inst.params, "die_sigma", cfg.die_sigma);
  cfg.seed = inst.seed;
  return cfg;
}

void add_report(Digest& d, const sc::CampaignReport& report) {
  d.add(report.campaign).add(report.seed);
  for (const sc::ScenarioResult& s : report.scenarios) {
    d.add(s.name).add(s.kind).add(s.seed);
    for (const std::string& key : s.metrics.keys()) {
      d.add(key).add(s.metrics.at(key).as_number());
    }
  }
}

class CampaignWorkload final : public Workload {
 public:
  void setup(const Options& opt, Pools& pools) override {
    root_ = opt.root + "/examples/campaigns/";
    names_.assign(std::begin(kCampaigns),
                  opt.tiny ? std::begin(kCampaigns) + 1 : std::end(kCampaigns));
    parse_files();
    specs_.clear();
    instances_ = 0;
    for (const sc::CampaignSpec& spec : committed_) {
      specs_.push_back(reseed(spec, opt.seed));
      instances_ += sc::expand_campaign(spec).size();
    }
    sc::register_builtin_kinds();
    // Warm the per-thread op caches: the smoke campaign on both pools.
    sc::run_campaign(committed_[0], &pools.t1);
    sc::run_campaign(committed_[0], &pools.t4);
  }

  [[nodiscard]] double items_per_run() const override {
    return static_cast<double>(instances_);
  }

  std::string run(sttram::ParallelExecutor& exec) override {
    Digest d;
    for (const sc::CampaignSpec& spec : specs_) {
      add_report(d, sc::run_campaign(spec, &exec));
    }
    return d.hex();
  }

  void verify(Pools& pools, Checks& checks) override {
    verify_goldens(pools, checks);
  }

  Metrics trace(Pools& pools, Tracer& tracer, Checks& checks,
                double budget_s) override {
    const std::size_t min_each = budget_s > 0.0 ? 3 : 1;
    Metrics m;

    // io.json: campaign + golden files, read and parsed.
    const auto parse_walls = alternate(1, 0.05 * budget_s, min_each,
                                       [&](std::size_t) { parse_files(); });
    m["io.json.parse_s"] = {median(parse_walls[0]), "s"};

    const auto expand_walls =
        alternate(1, 0.05 * budget_s, min_each, [&](std::size_t) {
          for (const sc::CampaignSpec& spec : specs_) {
            for (const sc::ScenarioInstance& inst :
                 sc::expand_campaign(spec)) {
              sc::validate_instance(inst);
            }
          }
        });
    m["scenario.expand_s"] = {median(expand_walls[0]), "s"};

    // Serial per-instance passes through Registry::find(kind)->run.
    std::map<std::string, std::vector<double>> kind_s;
    std::vector<double> instance_ms, pass_s, build_s;
    std::string serial_digest;
    alternate(1, 0.4 * budget_s, min_each, [&](std::size_t) {
      std::map<std::string, double> kinds;
      for (const char* kind : kKinds) kinds[kind] = 0.0;
      double pass = 0.0;
      Digest d;
      tracer.begin_run();
      for (const sc::CampaignSpec& spec : specs_) {
        for (const sc::ScenarioInstance& inst : sc::expand_campaign(spec)) {
          const auto t0 = Clock::now();
          const Json metrics = run_instance(tracer, inst);
          const double wall = seconds_since(t0);
          kinds[inst.kind] += wall;
          pass += wall;
          instance_ms.push_back(1e3 * wall);
          for (const std::string& key : metrics.keys()) {
            d.add(key).add(metrics.at(key).as_number());
          }
        }
      }
      for (const auto& [kind, s] : kinds) kind_s[kind].push_back(s);
      pass_s.push_back(pass);
      if (serial_digest.empty()) serial_digest = d.hex();
      checks.expect(d.hex() == serial_digest,
                    "campaign: serial passes disagree");
    });
    for (const auto& [kind, v] : kind_s) {
      m["scenario.kind." + kind + "_s"] = {median(v), "s"};
    }
    m["scenario.instance_ms.p50"] = {median(instance_ms), "ms"};
    m["scenario.instance_ms.max"] = {
        *std::max_element(instance_ms.begin(), instance_ms.end()), "ms"};
    m["scenario.instances"] = {static_cast<double>(instances_), "count"};

    // sense: the yield kernel build + column tables of every yield
    // instance, replayed through the public calls.
    alternate(1, 0.05 * budget_s, min_each, [&](std::size_t) {
      tracer.begin_run();
      const std::size_t from = tracer.spans().size();
      for (const sc::CampaignSpec& spec : specs_) {
        for (const sc::ScenarioInstance& inst : sc::expand_campaign(spec)) {
          if (inst.kind != "yield") continue;
          const sttram::YieldConfig cfg = yield_config_of(inst);
          const sttram::MtjVariationModel model = yield_variation(cfg);
          Tracer::Scope s(tracer, "sense.kernel_build");
          build_yield_kernel(cfg, model);
        }
      }
      build_s.push_back(tracer.total_since(from, "sense.kernel_build"));
    });
    m["sense.kernel_build_s"] = {median(build_s), "s"};

    // Cross-instance parallelism at 4 threads.
    const auto t4_walls = alternate(
        1, 0.2 * budget_s, min_each, [&](std::size_t) {
          tracer.begin_run();
          Tracer::Scope s(tracer, "scenario.run_campaign.t4");
          run(pools.t4);
        });
    m["scenario.t4_busy_frac"] = {
        median(pass_s) / (4.0 * median(t4_walls[0])), "fraction"};

    // Op-cache hit rate from the obs counters over one 1-thread run.
    auto& reg = sttram::obs::Registry::instance();
    set_telemetry(true);
    const std::uint64_t hits0 = reg.counter("mc.opcache.hits").value();
    const std::uint64_t miss0 = reg.counter("mc.opcache.misses").value();
    run(pools.t1);
    const auto hits =
        static_cast<double>(reg.counter("mc.opcache.hits").value() - hits0);
    const auto lookups = hits + static_cast<double>(
                                    reg.counter("mc.opcache.misses").value() -
                                    miss0);
    set_telemetry(false);
    m["device.opcache.lookups"] = {lookups, "count"};
    m["device.opcache.hit_rate"] = {lookups > 0 ? hits / lookups : 0.0,
                                    "fraction"};

    const double verify_s = verify_goldens(pools, checks);
    m["scenario.verify_s"] = {verify_s, "s"};
    return m;
  }

  void ladder_job(Pools&, Tracer& tracer) override {
    tracer.begin_run();
    for (const sc::CampaignSpec& spec : specs_) {
      for (const sc::ScenarioInstance& inst : sc::expand_campaign(spec)) {
        run_instance(tracer, inst);
      }
    }
  }

 private:
  /// One instance through its kind's registry entry, serially, spanned
  /// as scenario.kind.<kind>.
  static Json run_instance(Tracer& tracer, const sc::ScenarioInstance& inst) {
    const std::string span = "scenario.kind." + inst.kind;
    Tracer::Scope s(tracer, span.c_str());
    return sc::Registry::instance().find(inst.kind)->run(inst, nullptr);
  }

  void parse_files() {
    committed_.clear();
    goldens_.clear();
    for (const std::string& name : names_) {
      committed_.push_back(
          sc::parse_campaign_text(read_file(root_ + name + ".json")));
      goldens_.push_back(sc::CampaignReport::from_json(
          Json::parse(read_file(root_ + "golden/" + name + ".json"))));
    }
  }

  /// Runs the committed campaigns at 4 threads and diffs each report
  /// against its golden; returns the time spent diffing.
  double verify_goldens(Pools& pools, Checks& checks) {
    double diff_s = 0.0;
    for (std::size_t i = 0; i < committed_.size(); ++i) {
      const sc::CampaignReport report =
          sc::run_campaign(committed_[i], &pools.t4);
      const auto t0 = Clock::now();
      const auto diffs =
          sc::diff_reports(goldens_[i], report, committed_[i].tolerances);
      diff_s += seconds_since(t0);
      checks.expect(diffs.empty(),
                    "campaign " + names_[i] + ": " +
                        std::to_string(diffs.size()) +
                        " differences from the golden report" +
                        (diffs.empty() ? "" : " (first: " +
                                                  diffs[0].scenario + " " +
                                                  diffs[0].metric + " " +
                                                  diffs[0].detail + ")"));
    }
    return diff_s;
  }

  std::string root_;
  std::vector<std::string> names_;
  std::vector<sc::CampaignSpec> committed_;
  std::vector<sc::CampaignReport> goldens_;
  std::vector<sc::CampaignSpec> specs_;  ///< reseeded from --seed
  std::size_t instances_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload() {
  return std::make_unique<CampaignWorkload>();
}

}  // namespace e2e
