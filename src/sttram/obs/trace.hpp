// Scoped tracing in Chrome trace-event format: every STTRAM_OBS_SCOPE
// (profile.hpp) that runs while the recorder is active becomes one
// "complete" ("ph": "X") event, which chrome://tracing (or
// https://ui.perfetto.dev) renders as a flame graph of a whole run.
//
// Like the metrics registry, tracing is off by default and inert when
// off.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace sttram {
class Json;
}

namespace sttram::obs {

/// Process-wide span collector.  start() clears previous events and
/// establishes the time origin; write() emits the standard
/// {"traceEvents": [...]} JSON object.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Clears any previous events, sets the time origin and starts
  /// recording.
  void start();
  /// Stops recording (already-collected events are kept for write()).
  void stop();
  /// Drops all collected events.
  void clear();

  [[nodiscard]] std::size_t event_count() const;

  /// Appends one complete event spanning [start, end], categorized by
  /// the name's first '.'-separated segment; no-op when inactive.
  void record(const char* name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  [[nodiscard]] Json to_json() const;
  void write(std::ostream& out) const;

 private:
  TraceRecorder() = default;

  struct Event {
    std::string name;
    double ts_us = 0.0;
    double dur_us = 0.0;
    std::uint64_t tid = 0;
  };

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_{};
  std::vector<Event> events_;
};

/// Writes the collected trace to `path` (chrome://tracing JSON).  Throws
/// sttram::Error when the file cannot be written.
void write_trace_json(const std::string& path);

}  // namespace sttram::obs
