// The one instrumentation scope: STTRAM_OBS_SCOPE("yield.experiment")
// times the rest of the enclosing block once and feeds every telemetry
// sink that is on:
//  - the flat phase profile (calls, total and self seconds; self time
//    separates nested scopes through a per-thread scope stack), when
//    profiling is on;
//  - the `<name>_seconds` histogram of the metrics registry, when
//    metrics are on (the handle is resolved once per call site);
//  - one Chrome trace event, category = the name's first segment
//    ("yield" above), when the trace recorder is active.
//
// Contract (same as the metrics registry, DESIGN.md §11):
//  - Inert when every sink is off: constructing a scope then performs
//    one relaxed atomic load and nothing else — no clock read, no
//    allocation, no thread-local write.
//  - Observation only: a scope never consumes RNG state or changes
//    control flow, so every instrumented result is bit-identical with
//    telemetry on or off (regression-tested in tests/test_obs.cpp).
//  - One scope per phase.  Per-block, per-trial, per-read and
//    per-request code records counters only (CONTRIBUTING.md,
//    "Instrumenting a phase").
//
// Each thread keeps its own scope stack; aggregation into the
// process-wide profiler happens on scope exit under a mutex (scope exits
// are rare relative to the work they time).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace sttram {
class Json;
}

namespace sttram::obs {

class HistogramMetric;

namespace detail {
/// The telemetry sinks that are on, one bit each.  set_profiling_enabled,
/// set_metrics_enabled and TraceRecorder::start()/stop() flip them.
inline constexpr unsigned kProfileSink = 1u;
inline constexpr unsigned kMetricsSink = 2u;
inline constexpr unsigned kTraceSink = 4u;
extern std::atomic<unsigned> g_sinks;
void set_sink(unsigned sink, bool on);
}  // namespace detail

/// Phase-profile switch; off by default.
void set_profiling_enabled(bool on);

/// One row of the flat profile.
struct PhaseStats {
  std::string name;
  std::uint64_t calls = 0;
  double total_seconds = 0.0;  ///< inclusive (with children)
  double self_seconds = 0.0;   ///< exclusive (children subtracted)
};

/// Process-wide phase accumulator (leaked singleton, same lifetime rule
/// as the metrics Registry).
class Profiler {
 public:
  static Profiler& instance();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Folds one finished scope into the named phase.
  void record(const char* name, double total_seconds, double self_seconds);

  /// Flat profile sorted by descending self time.
  [[nodiscard]] std::vector<PhaseStats> report() const;

  /// [{"phase": ..., "calls": ..., "total_seconds": ...,
  ///   "self_seconds": ...}, ...] in report() order.
  [[nodiscard]] Json to_json() const;

  void reset();

 private:
  Profiler() = default;

  struct Accum {
    std::uint64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Accum> phases_;
};

/// One instrumented call site: the phase name (a string literal in
/// [a-z0-9_.]) and its `<name>_seconds` histogram, registered the first
/// time a scope of this site runs with metrics on.  Constant-initialized,
/// so the function-local static STTRAM_OBS_SCOPE declares costs no guard.
class ScopeSite {
 public:
  constexpr explicit ScopeSite(const char* name) : name_(name) {}

  [[nodiscard]] const char* name() const { return name_; }
  /// The `<name>_seconds` histogram (throws sttram::InvalidArgument for
  /// a name outside the registry's alphabet).
  HistogramMetric& histogram();

 private:
  const char* name_;
  std::atomic<HistogramMetric*> histogram_{nullptr};
};

/// RAII scope attributing its lifetime to its site's phase.  The sinks
/// it feeds are the ones on at construction; a scope that started while
/// a sink was on still records into it if the sink is switched off
/// mid-flight (the sample is already paid for), except the trace
/// recorder, which drops events once stopped.
class Scope {
 public:
  explicit Scope(ScopeSite& site) {
    const unsigned sinks = detail::g_sinks.load(std::memory_order_relaxed);
    if (sinks != 0) enter(site, sinks);
  }
  ~Scope() {
    if (sinks_ != 0) exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  void enter(ScopeSite& site, unsigned sinks);
  void exit();

  const char* name_ = nullptr;
  HistogramMetric* histogram_ = nullptr;
  Scope* parent_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  double child_seconds_ = 0.0;
  unsigned sinks_ = 0;
};

}  // namespace sttram::obs

#define STTRAM_OBS_CONCAT_INNER(a, b) a##b
#define STTRAM_OBS_CONCAT(a, b) STTRAM_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing block as the phase `name` (a string
/// literal) for the profile, the `<name>_seconds` histogram and the
/// trace.
#define STTRAM_OBS_SCOPE(name)                                            \
  static ::sttram::obs::ScopeSite STTRAM_OBS_CONCAT(sttram_obs_site_,     \
                                                    __LINE__)(name);      \
  ::sttram::obs::Scope STTRAM_OBS_CONCAT(sttram_obs_scope_, __LINE__)(    \
      STTRAM_OBS_CONCAT(sttram_obs_site_, __LINE__))
