// Scenario platform: campaign parsing, sweep expansion, registry
// validation (types, ranges, defaults), the kinds' builders, command-line
// tables, the determinism contract of the campaign runner (reports
// bit-identical across thread counts) and the golden-verify round trip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/scenario/builders.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/scenario/scenario.hpp"
#include "sttram/scenario/schema.hpp"

using namespace sttram;
using namespace sttram::scenario;

namespace {

/// A small but representative campaign: one swept scenario (2x2 axes)
/// plus one fixed-seed scenario of a second kind.  Campaign-wide
/// defaults apply to every scenario, so both kinds here accept
/// rows/cols; kinds with disjoint parameters keep them in their own
/// params block instead.
const char* kCampaignText = R"({
  "schema_version": 1,
  "name": "unit",
  "description": "test campaign",
  "seed": 99,
  "defaults": {"rows": 16, "cols": 16},
  "scenarios": [
    {"name": "sweep", "kind": "yield",
     "sweep": {"sigma_common": [0.04, 0.08], "die_sigma": [0.0, 0.01]}},
    {"name": "fixed", "kind": "march",
     "params": {"scheme": "nondestructive", "density": 0.02, "seed": 3}}
  ],
  "tolerances": {"default_rel": 0.0}
})";

CampaignSpec unit_spec() { return parse_campaign_text(kCampaignText); }

}  // namespace

TEST(Schema, ValidatesTypesAndRejectsUnknownKeys) {
  ParamSchema s;
  s.integer("count", "a count", std::nullopt)
      .number("rate", "a rate", std::nullopt)
      .choice("mode", "a mode", {"fast", "slow"}, "fast");
  Json ok = Json::object();
  ok.set("count", Json::integer(3));
  ok.set("rate", Json::number(0.5));
  ok.set("mode", Json::string("fast"));
  EXPECT_NO_THROW(s.validate(ok, "ctx"));

  Json unknown = Json::object();
  unknown.set("typo", Json::integer(1));
  EXPECT_THROW(s.validate(unknown, "ctx"), Error);

  Json bad_enum = Json::object();
  bad_enum.set("mode", Json::string("warp"));
  EXPECT_THROW(s.validate(bad_enum, "ctx"), Error);

  Json bad_type = Json::object();
  bad_type.set("count", Json::string("three"));
  EXPECT_THROW(s.validate(bad_type, "ctx"), Error);
}

TEST(Campaign, ParseReadsAllBlocks) {
  const CampaignSpec spec = unit_spec();
  EXPECT_EQ(spec.name, "unit");
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.scenarios.size(), 2u);
  EXPECT_EQ(spec.scenarios[0].kind, "yield");
  EXPECT_EQ(spec.tolerances.default_rel, 0.0);
  EXPECT_EQ(param_int(spec.defaults, "rows", 0), 16);
}

TEST(Campaign, ParseRejectsBadDocuments) {
  // Wrong schema version.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 2, "name": "x",
                       "scenarios": [{"name": "a", "kind": "yield"}]})"),
               Error);
  // No scenarios.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": []})"),
               Error);
  // Duplicate scenario names.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield"},
                       {"name": "a", "kind": "tail"}]})"),
               Error);
  // Sweep axis colliding with a fixed param.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield",
                        "params": {"rows": 8},
                        "sweep": {"rows": [8, 16]}}]})"),
               Error);
  // Unknown scenario key.
  EXPECT_THROW(parse_campaign_text(
                   R"({"schema_version": 1, "name": "x", "scenarios": [
                       {"name": "a", "kind": "yield", "paramz": {}}]})"),
               Error);
}

TEST(Campaign, ExpansionIsCartesianAndOrdered) {
  const std::vector<ScenarioInstance> instances =
      expand_campaign(unit_spec());
  ASSERT_EQ(instances.size(), 5u);  // 2x2 sweep + 1 fixed
  // Axes iterate in sorted key order, rightmost fastest.
  EXPECT_EQ(instances[0].name, "sweep/die_sigma=0,sigma_common=0.04");
  EXPECT_EQ(instances[1].name, "sweep/die_sigma=0,sigma_common=0.08");
  EXPECT_EQ(instances[2].name, "sweep/die_sigma=0.01,sigma_common=0.04");
  EXPECT_EQ(instances[3].name, "sweep/die_sigma=0.01,sigma_common=0.08");
  EXPECT_EQ(instances[4].name, "fixed");
  // Defaults merged under the axis values.
  EXPECT_EQ(param_int(instances[0].params, "rows", 0), 16);
  EXPECT_DOUBLE_EQ(param_number(instances[3].params, "sigma_common", 0.0),
                   0.08);
  // Every instance gets a distinct deterministic seed fork...
  EXPECT_NE(instances[0].seed, instances[1].seed);
  // ...reproducible across expansions.
  const auto again = expand_campaign(unit_spec());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    EXPECT_EQ(instances[i].seed, again[i].seed);
    EXPECT_EQ(instances[i].index, i);
  }
}

TEST(Campaign, PinnedSeedWinsOverFork) {
  const CampaignSpec spec = parse_campaign_text(
      R"({"schema_version": 1, "name": "x", "seed": 5, "scenarios": [
          {"name": "a", "kind": "yield",
           "params": {"rows": 8, "cols": 8, "seed": 1234}}]})");
  const auto instances = expand_campaign(spec);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(instances[0].seed, 1234u);
}

TEST(Registry, BuiltinKindsRegisterAndValidate) {
  register_builtin_kinds();
  register_builtin_kinds();  // idempotent
  for (const char* name : {"yield", "tail", "traffic", "controller",
                           "fault_overlay", "margin_sweep", "march"}) {
    EXPECT_NE(Registry::instance().find(name), nullptr) << name;
  }
  ScenarioInstance bad;
  bad.name = "bad";
  bad.kind = "no_such_kind";
  EXPECT_THROW(validate_instance(bad), Error);

  ScenarioInstance typo;
  typo.name = "typo";
  typo.kind = "yield";
  typo.params = Json::object();
  typo.params.set("rowz", Json::integer(8));
  EXPECT_THROW(validate_instance(typo), Error);
}

TEST(Registry, ControllerKindRunsAndReportsFlatMetrics) {
  register_builtin_kinds();
  ScenarioInstance inst;
  inst.name = "ctl";
  inst.kind = "controller";
  inst.seed = 11;
  inst.params = Json::object();
  inst.params.set("channels", Json::integer(2));
  inst.params.set("ranks", Json::integer(1));
  inst.params.set("banks", Json::integer(4));
  inst.params.set("requests", Json::integer(20000));
  validate_instance(inst);
  const ExperimentKind* kind = Registry::instance().find("controller");
  ASSERT_NE(kind, nullptr);
  const Json serial = kind->run(inst, nullptr);
  for (const char* metric :
       {"mean_latency_ns", "p99_latency_ns", "row_hit_rate",
        "bandwidth_mbps", "energy_per_bit_pj", "coalesced_reads",
        "starvation_promotions"}) {
    EXPECT_TRUE(serial.contains(metric)) << metric;
  }
  engine::ThreadPool pool(4);
  EXPECT_EQ(serial.dump(2), kind->run(inst, &pool).dump(2));
}

TEST(Campaign, RunRejectsInvalidParamsBeforeRunning) {
  CampaignSpec spec = unit_spec();
  spec.scenarios[1].params.set("bogus_param", Json::number(1.0));
  EXPECT_THROW(run_campaign(spec), Error);
  // Campaign-wide defaults are validated per scenario too: a default
  // some kind in the campaign does not accept is an error, not noise.
  CampaignSpec bad_default = unit_spec();
  bad_default.defaults.set("sigma_common", Json::number(0.05));
  EXPECT_THROW(run_campaign(bad_default), Error);  // march has no sigma
}

TEST(Campaign, ReportIsBitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = unit_spec();
  const std::string serial = run_campaign(spec).to_json().dump(2);
  for (const std::size_t threads : {2u, 8u}) {
    engine::ThreadPool pool(threads);
    const std::string parallel =
        run_campaign(spec, &pool).to_json().dump(2);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(Campaign, ReportRoundTripsThroughJson) {
  const CampaignReport report = run_campaign(unit_spec());
  const CampaignReport back =
      CampaignReport::from_json(Json::parse(report.to_json().dump(2)));
  EXPECT_EQ(back.campaign, report.campaign);
  EXPECT_EQ(back.seed, report.seed);
  ASSERT_EQ(back.scenarios.size(), report.scenarios.size());
  EXPECT_TRUE(diff_reports(report, back, VerifyTolerances{}).empty());
}

TEST(Campaign, ReportRejectsWrongSchemaVersion) {
  Json j = run_campaign(unit_spec()).to_json();
  j.set("schema_version", Json::integer(CampaignReport::kSchemaVersion + 1));
  EXPECT_THROW(CampaignReport::from_json(j), Error);
}

TEST(Campaign, VerifyRoundTripAndPerturbationDiff) {
  const CampaignSpec spec = unit_spec();
  const CampaignReport golden = run_campaign(spec);
  // Re-run vs golden: exact match.
  EXPECT_TRUE(
      diff_reports(golden, run_campaign(spec), spec.tolerances).empty());

  // Perturb one metric: exactly that metric is reported, with values.
  CampaignReport perturbed = golden;
  const std::string metric = perturbed.scenarios[0].metrics.keys().front();
  const double old_value =
      perturbed.scenarios[0].metrics.at(metric).as_number();
  perturbed.scenarios[0].metrics.set(metric, Json::number(old_value + 0.5));
  const auto diffs =
      diff_reports(perturbed, run_campaign(spec), spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_EQ(diffs[0].scenario, golden.scenarios[0].name);
  EXPECT_EQ(diffs[0].metric, metric);
  EXPECT_DOUBLE_EQ(diffs[0].golden, old_value + 0.5);
  EXPECT_DOUBLE_EQ(diffs[0].candidate, old_value);
  EXPECT_NE(diffs[0].detail.find("golden"), std::string::npos);

  // A relaxed per-metric tolerance swallows the same perturbation.
  VerifyTolerances relaxed;
  relaxed.per_metric.push_back({metric, 1e6});
  EXPECT_TRUE(
      diff_reports(perturbed, run_campaign(spec), relaxed).empty());
}

TEST(Campaign, VerifyFlagsStructuralMismatches) {
  const CampaignSpec spec = unit_spec();
  const CampaignReport golden = run_campaign(spec);

  // Candidate missing a scenario.
  CampaignReport truncated = golden;
  truncated.scenarios.pop_back();
  auto diffs = diff_reports(golden, truncated, spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_TRUE(diffs[0].metric.empty());
  EXPECT_NE(diffs[0].detail.find("missing"), std::string::npos);

  // Candidate with an extra metric.
  CampaignReport extra = golden;
  extra.scenarios[0].metrics.set("surprise", Json::number(1.0));
  diffs = diff_reports(golden, extra, spec.tolerances);
  ASSERT_EQ(diffs.size(), 1u);
  EXPECT_NE(diffs[0].detail.find("absent from golden"), std::string::npos);
}

TEST(Campaign, RunNamesFailingScenario) {
  // beta_hi < beta_lo passes the schema (each field is in range) but
  // fails the margin sweep's cross-field rule at run time, so the
  // runner's error must name the instance.
  const CampaignSpec spec = parse_campaign_text(
      R"({"schema_version": 1, "name": "x", "scenarios": [
          {"name": "will_fail", "kind": "margin_sweep",
           "params": {"beta_lo": 3.0, "beta_hi": 2.0}}]})");
  register_builtin_kinds();
  for (const ScenarioInstance& inst : expand_campaign(spec)) {
    EXPECT_NO_THROW(validate_instance(inst));
  }
  try {
    run_campaign(spec);
    FAIL() << "expected run_campaign to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("will_fail' failed"), std::string::npos) << what;
    EXPECT_NE(what.find("beta_hi"), std::string::npos) << what;
  }
}

TEST(Campaign, ValidationNamesFailingScenario) {
  // rows == 0 is outside the yield schema's range: the campaign fails
  // validation, before any instance runs, naming scenario and field.
  const CampaignSpec spec = parse_campaign_text(
      R"({"schema_version": 1, "name": "x", "scenarios": [
          {"name": "will_fail", "kind": "yield",
           "params": {"rows": 0, "cols": 8}}]})");
  try {
    run_campaign(spec);
    FAIL() << "expected run_campaign to throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario 'will_fail': parameter 'rows' wants"),
              std::string::npos)
        << what;
  }
}

/// One instance of `kind` with `params` (JSON text), seed 7.
ScenarioInstance instance_of(const std::string& kind,
                             const std::string& params) {
  ScenarioInstance inst;
  inst.name = kind + "_probe";
  inst.kind = kind;
  inst.seed = 7;
  inst.params = Json::parse(params);
  return inst;
}

TEST(Schema, RejectsOutOfRangeCampaignParams) {
  register_builtin_kinds();
  const struct {
    const char* kind;
    const char* params;
    const char* field;
  } probes[] = {
      {"yield", R"({"rows": -1})", "rows"},
      {"yield", R"({"sigma_common": -0.1})", "sigma_common"},
      {"traffic", R"({"requests": -5})", "requests"},
      {"traffic", R"({"faults_ber": -1})", "faults_ber"},
      {"traffic", R"({"word_bits": 1e30})", "word_bits"},
      {"traffic", R"({"rho": 1.5})", "rho"},
      {"traffic", R"({"requests": 2.5})", "requests"},
      {"traffic", R"({"policy": "lifo"})", "policy"},
      {"tail", R"({"trials": -1})", "trials"},
      {"controller", R"({"channels": -1})", "channels"},
      {"march", R"({"density": -0.5})", "density"},
      {"fault_overlay", R"({"retry": 4294967296})", "retry"},
  };
  for (const auto& probe : probes) {
    const ScenarioInstance inst = instance_of(probe.kind, probe.params);
    try {
      validate_instance(inst);
      ADD_FAILURE() << probe.kind << " " << probe.params << " validated";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(inst.name), std::string::npos) << what;
      EXPECT_NE(what.find("parameter '" + std::string(probe.field) + "'"),
                std::string::npos)
          << what;
    }
  }
  // The seed takes any int64: reseeded benchmarks write seeds near 2^62.
  EXPECT_NO_THROW(validate_instance(
      instance_of("yield", R"({"seed": 4611686018427387904})")));
}

TEST(Schema, EmptyParamsRunLikeEveryDefaultSpelledOut) {
  register_builtin_kinds();
  for (const ExperimentKind& kind : Registry::instance().kinds()) {
    Json spelled = Json::object();
    for (const ParamField& f : kind.schema.fields()) {
      if (!f.fallback.is_null()) spelled.set(f.name, f.fallback);
    }
    ScenarioInstance bare = instance_of(kind.name, "{}");
    ScenarioInstance full = bare;
    full.params = spelled;
    validate_instance(full);
    EXPECT_EQ(kind.run(bare, nullptr).dump(), kind.run(full, nullptr).dump())
        << kind.name;
  }
}

TEST(Schema, CampaignListShowsEachDefaultAndRange) {
  register_builtin_kinds();
  for (const ExperimentKind& kind : Registry::instance().kinds()) {
    const std::string listing = kind.schema.describe();
    for (const ParamField& f : kind.schema.fields()) {
      const std::size_t row = listing.find("  " + f.name + " ");
      ASSERT_NE(row, std::string::npos) << kind.name << "." << f.name;
      const std::string line =
          listing.substr(row, listing.find('\n', row) - row);
      EXPECT_NE(line.find(f.expects()), std::string::npos) << line;
      if (f.type == ParamType::kInteger || f.type == ParamType::kNumber) {
        EXPECT_NE(line.find(f.range.to_string()), std::string::npos) << line;
      }
      EXPECT_EQ(line.find(", default ") != std::string::npos,
                !f.fallback.is_null())
          << line;
    }
  }
  const std::string traffic = Registry::instance().find("traffic")->schema
                                  .describe();
  EXPECT_NE(traffic.find("requests           an integer in [1, inf), "
                         "default 100000"),
            std::string::npos)
      << traffic;
  EXPECT_NE(traffic.find("rho                a number in (0, 1), "
                         "default 0.6"),
            std::string::npos)
      << traffic;
}

TEST(Builders, CrossFieldRulesNameTheFields) {
  Json ecc_only = Json::parse(R"({"ecc": true})");
  try {
    (void)build_traffic(ecc_only, 1);
    FAIL() << "ecc without faults_ber built";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "'ecc' needs 'faults_ber'");
  }
  // The CLI passes its flag spellings.
  try {
    (void)build_controller(ecc_only, 1,
                           {{"ecc", "--ecc"}, {"faults_ber", "--faults"}});
    FAIL() << "ecc without faults_ber built";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "--ecc needs --faults");
  }
  EXPECT_THROW((void)build_controller(
                   Json::parse(R"({"requests": 3, "channels": 4})"), 1),
               InvalidArgument);
  // An absent faults_ber is the fault-free path: no hook at all.
  EXPECT_EQ(build_traffic(Json::object(), 1).config.faults, nullptr);
  const auto hooked =
      build_traffic(Json::parse(R"({"faults_ber": 0.001, "ecc": true})"), 9);
  ASSERT_NE(hooked.faults, nullptr);
  EXPECT_EQ(hooked.config.faults, hooked.faults.get());
  EXPECT_EQ(hooked.faults->config().seed, 9u ^ 0x5717fa7ee1dULL);
  EXPECT_EQ(hooked.faults->config().max_attempts, 3u);
}

TEST(Builders, FaultHookReadsTheAccessWidth) {
  // Without ECC a read is the bare word, so the hook draws word_bits
  // bits per read, not the 64 of a TrafficFaultConfig{}.
  const char* params = R"({"faults_ber": 0.001, "word_bits": 32})";
  const auto traffic = build_traffic(Json::parse(params), 1);
  ASSERT_NE(traffic.faults, nullptr);
  EXPECT_FALSE(traffic.faults->config().ecc);
  EXPECT_EQ(traffic.faults->config().word_bits, 32u);
  const auto controller = build_controller(
      Json::parse(R"({"faults_ber": 0.001, "word_bits": 13})"), 1);
  ASSERT_NE(controller.faults, nullptr);
  EXPECT_EQ(controller.faults->config().word_bits, 13u);
}

TEST(Builders, ChoicesMapToLibraryEnums) {
  // The schema's choice spellings are the only scheme, policy, workload
  // and scheduler parsers; each must land on its enum value.
  const auto traffic = [](const char* params) {
    return build_traffic(Json::parse(params), 1).config;
  };
  EXPECT_EQ(traffic(R"({"scheme": "conventional"})").scheme,
            SchemeId::kConventional);
  EXPECT_EQ(traffic(R"({"scheme": "destructive"})").scheme,
            SchemeId::kDestructive);
  EXPECT_EQ(traffic("{}").scheme, SchemeId::kNondestructive);
  EXPECT_EQ(traffic(R"({"policy": "read-priority"})").policy,
            engine::SchedulingPolicy::kReadPriority);
  EXPECT_EQ(traffic("{}").policy, engine::SchedulingPolicy::kFcfs);
  EXPECT_EQ(traffic(R"({"workload": "closed"})").workload,
            engine::WorkloadKind::kClosedLoop);
  EXPECT_EQ(traffic("{}").workload, engine::WorkloadKind::kPoisson);
  namespace ctrl = engine::controller;
  const auto scheduler = [](const char* params) {
    return build_controller(Json::parse(params), 1).config.scheduler;
  };
  EXPECT_EQ(scheduler(R"({"scheduler": "fcfs"})"),
            ctrl::SchedulerPolicy::kFcfs);
  EXPECT_EQ(scheduler("{}"), ctrl::SchedulerPolicy::kFrFcfs);
  // Reports print the scheduler under the same name the schema reads.
  EXPECT_STREQ(ctrl::to_string(ctrl::SchedulerPolicy::kFrFcfs), "frfcfs");
  EXPECT_STREQ(ctrl::to_string(ctrl::SchedulerPolicy::kFcfs), "fcfs");
  EXPECT_EQ(build_march(Json::parse(R"({"scheme": "destructive"})"), 1)
                .scheme,
            SchemeId::kDestructive);
  // Anything else is refused before a builder sees it.
  register_builtin_kinds();
  for (const auto& [kind, params] :
       {std::pair{"traffic", R"({"scheme": "quantum"})"},
        std::pair{"traffic", R"({"scheme": ""})"},
        std::pair{"controller", R"({"scheduler": "lifo"})"},
        std::pair{"traffic", R"({"workload": "trace"})"}}) {
    EXPECT_THROW(validate_instance(instance_of(kind, params)), Error)
        << params;
  }
}

TEST(CliArgs, TableReadsFlagsSlotsAndSwitchesThroughTheSchema) {
  ParamSchema s;
  s.integer("count", "a count", 4, Range::at_least(1))
      .number("rate", "a rate", 0.5, Range::open(0, 1))
      .boolean("fast", "go fast", false)
      .choice("mode", "a mode", {"a", "b"}, "a");
  const std::vector<CliArg> table = {{"<count>", "count"},
                                     {"--rate", "rate"},
                                     {"--fast", "fast", "true"},
                                     {"--mode", "mode", nullptr, "magic"},
                                     {"--json", nullptr, ""},
                                     {"--file", nullptr}};
  const CliArgs a = parse_cli_args(
      table, s, {"1e5", "--rate", "0.25", "--fast", "--json", "--file", "x"},
      "demo");
  EXPECT_EQ(a.params.at("count").as_integer(), 100000);
  EXPECT_EQ(a.params.at("rate").as_number(), 0.25);
  EXPECT_TRUE(a.params.at("fast").as_bool());
  EXPECT_EQ(a.cli.at("--json"), "");
  EXPECT_EQ(a.cli.at("--file"), "x");
  EXPECT_EQ(parse_cli_args(table, s, {"--mode", "magic"}, "demo")
                .cli.at("--mode"),
            "magic");
  const auto error_of = [&](const std::vector<std::string>& tokens) {
    try {
      (void)parse_cli_args(table, s, tokens, "demo");
    } catch (const InvalidArgument& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(error_of({"10x"}),
            "<count> wants an integer in [1, inf), got '10x'");
  EXPECT_EQ(error_of({"--rate", "1"}),
            "--rate wants a number in (0, 1), got '1'");
  EXPECT_EQ(error_of({"--rate", "nan"}),
            "--rate wants a number in (0, 1), got 'nan'");
  EXPECT_EQ(error_of({"--mode", "c"}), "--mode wants one of {a, b}, got 'c'");
  EXPECT_EQ(error_of({"--rate"}), "--rate requires a value");
  EXPECT_EQ(error_of({"--bogus"}), "unknown flag '--bogus' for 'demo'");
  EXPECT_EQ(error_of({"1", "2"}), "unexpected argument '2' for 'demo'");
  const std::vector<CliArg> foreign = {{"--other", "other"}};
  EXPECT_THROW((void)parse_cli_args(foreign, s, {"--other", "1"}, "demo"),
               InvalidArgument);
  EXPECT_EQ(cli_names(table).at("rate"), "--rate");
}
