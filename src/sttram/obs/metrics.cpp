#include "sttram/obs/metrics.hpp"

#include <fstream>

#include "sttram/common/error.hpp"
#include "sttram/io/json.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram::obs {

bool metrics_enabled() {
  return (detail::g_sinks.load(std::memory_order_relaxed) &
          detail::kMetricsSink) != 0;
}

void set_metrics_enabled(bool on) {
  detail::set_sink(detail::kMetricsSink, on);
}

std::string normalize_metric_name(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.';
    if (ok) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      // Both literal '_' and mapped separators collapse into single '_',
      // never leading or trailing.
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

Registry& Registry::instance() {
  // Leaked on purpose: the STTRAM_OBS_* macros cache metric handles in
  // function-local statics, which the header promises stay valid for
  // the whole process.  A plain static would die at exit before the
  // statics built ahead of it, whose destructors (or a pool joining its
  // workers) may still record through such a handle.
  static Registry* registry = new Registry;
  return *registry;
}

Registry::Registry() {
  // Pre-register the well-known solver / Monte-Carlo metrics so every
  // export carries the full schema even when a workload never hits them.
  for (const char* name :
       {"mc.trials", "mc.opcache.hits", "mc.opcache.misses", "is.trials",
        "is.hits", "read.phases",
        "spice.dc.solves", "spice.dc.gmin_ramps", "spice.dc.gmin_decades",
        "spice.newton.solves", "spice.newton.iterations",
        "spice.newton.factorizations", "spice.newton.nonconverged",
        "spice.transient.runs", "spice.transient.steps_accepted",
        "spice.transient.steps_rejected", "tail.searches",
        "tail.margin_evaluations", "yield.experiments",
        "yield.margin_evaluations", "yield.margin_failures",
        "engine.requests", "engine.reads", "engine.writes",
        "fault.injected", "fault.march_detected", "fault.retries",
        "fault.raw_bit_errors", "fault.ecc_corrected",
        "fault.ecc_uncorrectable", "fault.silent_corruptions"}) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  for (const char* name : {"mc.batch_size", "engine.queue_depth",
                           "engine.bank_utilization",
                           "fault.march_coverage"}) {
    gauges_.emplace(name, std::make_unique<Gauge>());
  }
  // Distributions, durations included, exported with the full
  // percentile set (DESIGN.md §11).  The two run durations are the
  // STTRAM_OBS_SCOPE histograms of the yield and traffic runs.
  for (const char* name :
       {"yield.experiment_seconds", "traffic.simulate_seconds",
        "engine.latency_seconds", "engine.read_latency_seconds",
        "engine.write_latency_seconds"}) {
    histograms_.emplace(name, std::make_unique<HistogramMetric>());
  }
}

void Registry::check_name(const std::string& name, const char* kind) const {
  require(!name.empty(), "Registry: metric name must not be empty");
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    require(ok, "Registry: invalid metric name '" + name +
                    "' (allowed characters: [a-z0-9_.])");
  }
  const char* existing = nullptr;
  if (counters_.count(name) > 0) {
    existing = "counter";
  } else if (gauges_.count(name) > 0) {
    existing = "gauge";
  } else if (histograms_.count(name) > 0) {
    existing = "histogram";
  }
  if (existing != nullptr && std::string(existing) != kind) {
    throw InvalidArgument("Registry: metric '" + name + "' is a " +
                          existing + ", requested as a " + kind);
  }
}

Counter& Registry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "counter");
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "gauge");
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& Registry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  check_name(name, "histogram");
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

std::vector<CounterSnapshot> Registry::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<CounterSnapshot> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.push_back({name, c->value()});
  }
  return out;
}

std::vector<GaugeSnapshot> Registry::gauges() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<GaugeSnapshot> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.push_back({name, g->value()});
  }
  return out;
}

std::vector<HistogramSnapshot> Registry::histograms() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    out.push_back({name, h->snapshot()});
  }
  return out;
}

Json Registry::to_json() const {
  Json counters = Json::object();
  for (const auto& c : this->counters()) {
    counters.set(c.name,
                 Json::integer(static_cast<std::int64_t>(c.value)));
  }
  Json gauges = Json::object();
  for (const auto& g : this->gauges()) {
    gauges.set(g.name, Json::number(g.value));
  }
  Json histograms = Json::object();
  for (const auto& h : this->histograms()) {
    histograms.set(h.name, h.hist.summary().to_json());
  }
  Json out = Json::object();
  out.set("counters", std::move(counters));
  out.set("gauges", std::move(gauges));
  out.set("histograms", std::move(histograms));
  return out;
}

void Registry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

void write_metrics_json(const std::string& path, const Json& provenance) {
  std::ofstream out(path);
  if (!out) throw Error("write_metrics_json: cannot open '" + path + "'");
  // The phase profile rides along with the metrics so one file carries
  // the whole performance picture of the run.
  Json doc = Registry::instance().to_json();
  doc.set("profile", Profiler::instance().to_json());
  doc.set("provenance", provenance);
  out << doc.dump(2) << '\n';
}

}  // namespace sttram::obs
