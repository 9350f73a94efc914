// Process-wide telemetry registry: monotonic counters, gauges and
// log-bucketed histograms with JSON export.  Durations are
// histograms too: one lock-free primitive carries every distribution,
// and STTRAM_OBS_SCOPE (profile.hpp) is what records a phase's.
//
// Design goals (see DESIGN.md §8 and §11):
//  - Zero overhead when disabled: every instrumentation macro starts
//    with a single relaxed atomic load of the global enable flag and
//    performs no allocation, no locking and no clock read on that path.
//  - Numerical transparency: metrics only *observe* — instrumented code
//    never consumes RNG state or changes control flow, so results are
//    bit-identical with telemetry on or off.
//  - Stable handles: references returned by Registry::counter()/gauge()/
//    histogram() stay valid for the process lifetime; reset()
//    zeroes values but never invalidates a handle, so call sites may
//    cache them.
//  - Name hygiene: a metric name must be non-empty and match
//    [a-z0-9_.]+, and one name refers to exactly one metric kind —
//    asking for an existing counter as a gauge/histogram (or any other
//    cross-kind reuse) throws instead of silently shadowing.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sttram/obs/histogram.hpp"

namespace sttram {
class Json;
}

namespace sttram::obs {

/// Global metrics switch.  Off by default; flipping it on mid-process is
/// safe (instrumentation sites lazily register on first enabled hit).
[[nodiscard]] bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Makes a free-form string (a phase label, a user-supplied tag) safe as
/// a metric name: lowercases it and maps every character outside
/// [a-z0-9_.] to '_', collapsing runs and trimming the ends.  Use this
/// at call sites that build names dynamically; literal names should just
/// be written in the valid alphabet (the registry rejects violations).
[[nodiscard]] std::string normalize_metric_name(const std::string& raw);

/// Monotonic event counter (thread-safe, lock-free).
class Counter {
 public:
  void add(std::uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread-safe).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct HistogramSnapshot {
  std::string name;
  Histogram hist;
};

/// The process-wide registry.  Well-known solver/MC metric names are
/// pre-registered at construction so every export carries the full
/// schema (zero-valued when the workload never hit them).
class Registry {
 public:
  static Registry& instance();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the named metric, creating it on first use.  The returned
  /// reference stays valid for the process lifetime.  Throws
  /// sttram::InvalidArgument when `name` is empty, contains a character
  /// outside [a-z0-9_.], or is already registered as a different kind.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  HistogramMetric& histogram(const std::string& name);

  [[nodiscard]] std::vector<CounterSnapshot> counters() const;
  [[nodiscard]] std::vector<GaugeSnapshot> gauges() const;
  [[nodiscard]] std::vector<HistogramSnapshot> histograms() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count,
  /// mean, min, max, p50, p90, p99, p999}}}.
  [[nodiscard]] Json to_json() const;

  /// Zeroes every metric; handles stay valid.
  void reset();

 private:
  Registry();

  /// Validates syntax and rejects cross-kind reuse; call with mu_ held.
  /// `kind` is the map being inserted into.
  void check_name(const std::string& name, const char* kind) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_;
};

/// Dumps the registry and the phase profile to `path` as pretty-printed
/// JSON, with `provenance` (where the numbers came from: build, host,
/// command line) under that key and a `process` object (the process's
/// minor faults, voluntary context switches, user and system CPU seconds
/// and peak RSS so far).  Throws sttram::Error when the file cannot be
/// written.
void write_metrics_json(const std::string& path, const Json& provenance);

}  // namespace sttram::obs

/// Adds `delta` to the counter `name` (a string literal).  The handle is
/// resolved once per call site and cached in a function-local static, so
/// the steady-state enabled cost is one flag load + one relaxed add.
#define STTRAM_OBS_ADD(name, delta)                                       \
  do {                                                                    \
    if (::sttram::obs::metrics_enabled()) {                               \
      static ::sttram::obs::Counter& sttram_obs_counter_ =                \
          ::sttram::obs::Registry::instance().counter(name);              \
      sttram_obs_counter_.add(static_cast<std::uint64_t>(delta));         \
    }                                                                     \
  } while (0)

#define STTRAM_OBS_COUNT(name) STTRAM_OBS_ADD(name, 1)

/// Sets the gauge `name` to `value`.
#define STTRAM_OBS_SET_GAUGE(name, value)                                 \
  do {                                                                    \
    if (::sttram::obs::metrics_enabled()) {                               \
      static ::sttram::obs::Gauge& sttram_obs_gauge_ =                    \
          ::sttram::obs::Registry::instance().gauge(name);                \
      sttram_obs_gauge_.set(static_cast<double>(value));                  \
    }                                                                     \
  } while (0)
