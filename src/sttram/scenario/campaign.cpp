#include "sttram/scenario/campaign.hpp"

#include <cmath>
#include <cstdio>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/scenario/registry.hpp"

namespace sttram::scenario {

Json CampaignReport::to_json() const {
  Json out = Json::object();
  out.set("schema_version", Json::integer(kSchemaVersion));
  out.set("campaign", Json::string(campaign));
  out.set("description", Json::string(description));
  out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
  out.set("scenario_count",
          Json::integer(static_cast<std::int64_t>(scenarios.size())));
  Json arr = Json::array();
  for (const ScenarioResult& s : scenarios) {
    Json j = Json::object();
    j.set("name", Json::string(s.name));
    j.set("kind", Json::string(s.kind));
    j.set("seed", Json::integer(static_cast<std::int64_t>(s.seed)));
    j.set("params", s.params);
    j.set("metrics", s.metrics);
    arr.push_back(std::move(j));
  }
  out.set("scenarios", std::move(arr));
  return out;
}

CampaignReport CampaignReport::from_json(const Json& j) {
  require(j.is_object(), "campaign report: wants a JSON object");
  require(j.contains("schema_version"),
          "campaign report: missing 'schema_version'");
  const std::int64_t version = j.at("schema_version").as_integer();
  require(version == kSchemaVersion,
          "campaign report: schema_version " + std::to_string(version) +
              " unsupported (this build reads version " +
              std::to_string(kSchemaVersion) + ")");
  CampaignReport report;
  report.campaign = j.at("campaign").as_string();
  report.description = j.at("description").as_string();
  report.seed = static_cast<std::uint64_t>(j.at("seed").as_integer());
  const Json& arr = j.at("scenarios");
  require(arr.is_array(), "campaign report: 'scenarios' wants an array");
  for (std::size_t i = 0; i < arr.size(); ++i) {
    const Json& s = arr.at(i);
    ScenarioResult r;
    r.name = s.at("name").as_string();
    r.kind = s.at("kind").as_string();
    r.seed = static_cast<std::uint64_t>(s.at("seed").as_integer());
    r.params = s.at("params");
    r.metrics = s.at("metrics");
    require(r.metrics.is_object(),
            "campaign report: scenario '" + r.name +
                "': 'metrics' wants an object");
    report.scenarios.push_back(std::move(r));
  }
  return report;
}

CampaignReport run_campaign(const CampaignSpec& spec,
                            ParallelExecutor* executor) {
  STTRAM_OBS_SCOPE("campaign.run");
  register_builtin_kinds();
  const std::vector<ScenarioInstance> instances = expand_campaign(spec);
  // Fail fast: every instance validates before anything runs.
  for (const ScenarioInstance& inst : instances) validate_instance(inst);

  SerialExecutor serial;
  ParallelExecutor& exec = executor != nullptr ? *executor : serial;

  // Fan the instances out over the executor's chunk partition.  Each
  // chunk runs its instances serially into disjoint slots, and inner
  // experiment loops stay serial — scenario granularity is the
  // parallel axis.  The reduction below reads the slots in expansion
  // order, so the report is bit-identical for any thread count.
  std::vector<Json> metrics(instances.size());
  std::vector<std::string> errors(instances.size());
  exec.for_chunks(instances.size(), [&](std::size_t, std::size_t begin,
                                        std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      STTRAM_OBS_COUNT("campaign.scenarios_run");
      STTRAM_OBS_SCOPE("campaign.scenario");
      try {
        const ExperimentKind* kind =
            Registry::instance().find(instances[i].kind);
        metrics[i] = kind->run(instances[i], nullptr);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  });

  for (std::size_t i = 0; i < instances.size(); ++i) {
    require(errors[i].empty(), "scenario '" + instances[i].name +
                                   "' failed: " + errors[i]);
  }

  CampaignReport report;
  report.campaign = spec.name;
  report.description = spec.description;
  report.seed = spec.seed;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ScenarioResult r;
    r.name = instances[i].name;
    r.kind = instances[i].kind;
    r.seed = instances[i].seed;
    r.params = instances[i].params;
    r.metrics = std::move(metrics[i]);
    report.scenarios.push_back(std::move(r));
  }
  return report;
}

namespace {

const ScenarioResult* find_scenario(const CampaignReport& report,
                                    const std::string& name) {
  for (const ScenarioResult& s : report.scenarios) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

std::vector<MetricDiff> diff_reports(const CampaignReport& golden,
                                     const CampaignReport& candidate,
                                     const VerifyTolerances& tolerances) {
  std::vector<MetricDiff> diffs;
  const auto structural = [&diffs](const std::string& scenario,
                                   const std::string& detail) {
    diffs.push_back({scenario, "", 0.0, 0.0, 0.0, detail});
  };

  for (const ScenarioResult& g : golden.scenarios) {
    const ScenarioResult* c = find_scenario(candidate, g.name);
    if (c == nullptr) {
      structural(g.name, "scenario missing from candidate report");
      continue;
    }
    for (const std::string& key : g.metrics.keys()) {
      if (!c->metrics.contains(key)) {
        structural(g.name, "metric '" + key + "' missing from candidate");
        continue;
      }
      const double gv = g.metrics.at(key).as_number();
      const double cv = c->metrics.at(key).as_number();
      const double tol = tolerances.for_metric(key);
      const double scale = std::max(std::fabs(gv), std::fabs(cv));
      const double abs_err = std::fabs(cv - gv);
      if (abs_err <= tol * scale) continue;
      if (tol == 0.0 && gv == cv) continue;
      MetricDiff d;
      d.scenario = g.name;
      d.metric = key;
      d.golden = gv;
      d.candidate = cv;
      d.rel_error = scale > 0.0 ? abs_err / scale : 0.0;
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "golden %.17g vs candidate %.17g (rel %.3g, tol %g)",
                    gv, cv, d.rel_error, tol);
      d.detail = buf;
      diffs.push_back(std::move(d));
    }
    for (const std::string& key : c->metrics.keys()) {
      if (!g.metrics.contains(key)) {
        structural(g.name, "metric '" + key + "' absent from golden");
      }
    }
  }
  for (const ScenarioResult& c : candidate.scenarios) {
    if (find_scenario(golden, c.name) == nullptr) {
      structural(c.name, "scenario absent from golden report");
    }
  }
  return diffs;
}

}  // namespace sttram::scenario
