#include "sttram/obs/trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

#include "sttram/common/error.hpp"
#include "sttram/io/json.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram::obs {
namespace {

std::uint64_t current_tid() {
  // A stable, compact per-thread id for the "tid" field; Chrome only
  // needs it to distinguish lanes, not to match OS thread ids.
  const std::uint64_t h =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return h % 1000000;
}

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  // Leaked on purpose (same reason as Registry::instance): a scope may
  // close during static destruction, after a plain static had died.
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

void TraceRecorder::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
  detail::set_sink(detail::kTraceSink, true);
}

void TraceRecorder::stop() { detail::set_sink(detail::kTraceSink, false); }

void TraceRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

std::size_t TraceRecorder::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void TraceRecorder::record(const char* name,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end) {
  // A scope that started before stop() ends after it: drop its event.
  if ((detail::g_sinks.load(std::memory_order_relaxed) &
       detail::kTraceSink) == 0) {
    return;
  }
  using Micros = std::chrono::duration<double, std::micro>;
  Event e;
  e.name = name;
  e.tid = current_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  e.ts_us = Micros(start - epoch_).count();
  e.dur_us = Micros(end - start).count();
  events_.push_back(std::move(e));
}

Json TraceRecorder::to_json() const {
  Json events = Json::array();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      Json ev = Json::object();
      ev.set("name", Json::string(e.name));
      ev.set("cat", Json::string(e.name.substr(0, e.name.find('.'))));
      ev.set("ph", Json::string("X"));
      ev.set("ts", Json::number(e.ts_us));
      ev.set("dur", Json::number(e.dur_us));
      ev.set("pid", Json::integer(1));
      ev.set("tid", Json::integer(static_cast<std::int64_t>(e.tid)));
      events.push_back(std::move(ev));
    }
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  out.set("displayTimeUnit", Json::string("ms"));
  return out;
}

void TraceRecorder::write(std::ostream& out) const {
  out << to_json().dump(1) << '\n';
}

void write_trace_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("write_trace_json: cannot open '" + path + "'");
  TraceRecorder::instance().write(out);
}

}  // namespace sttram::obs
