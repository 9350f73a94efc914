#include "sttram/obs/profile.hpp"

#include <algorithm>

#include "sttram/io/json.hpp"
#include "sttram/obs/trace.hpp"

namespace sttram::obs {

namespace detail {
std::atomic<bool> g_profiling_enabled{false};
}  // namespace detail

namespace {

/// Top of the calling thread's scope stack (parent-pointer linked list;
/// no allocation, push/pop are two pointer writes).
thread_local ProfileScope* t_top = nullptr;

}  // namespace

void set_profiling_enabled(bool on) {
  detail::g_profiling_enabled.store(on, std::memory_order_relaxed);
}

Profiler& Profiler::instance() {
  // Leaked on purpose (same reason as Registry::instance): a scope may
  // close during static destruction, after a plain static had died.
  static Profiler* profiler = new Profiler;
  return *profiler;
}

void Profiler::record(const char* name, double total_seconds,
                      double self_seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  Accum& a = phases_[name];
  ++a.calls;
  a.total += total_seconds;
  a.self += self_seconds;
}

std::vector<PhaseStats> Profiler::report() const {
  std::vector<PhaseStats> rows;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rows.reserve(phases_.size());
    for (const auto& [name, a] : phases_) {
      PhaseStats row;
      row.name = name;
      row.calls = a.calls;
      row.total_seconds = a.total;
      row.self_seconds = a.self;
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const PhaseStats& lhs, const PhaseStats& rhs) {
              if (lhs.self_seconds != rhs.self_seconds) {
                return lhs.self_seconds > rhs.self_seconds;
              }
              return lhs.name < rhs.name;
            });
  return rows;
}

Json Profiler::to_json() const {
  Json arr = Json::array();
  for (const PhaseStats& row : report()) {
    Json obj = Json::object();
    obj.set("phase", Json::string(row.name));
    obj.set("calls", Json::integer(static_cast<std::int64_t>(row.calls)));
    obj.set("total_seconds", Json::number(row.total_seconds));
    obj.set("self_seconds", Json::number(row.self_seconds));
    arr.push_back(std::move(obj));
  }
  return arr;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  phases_.clear();
}

void ProfileScope::enter(const char* name) {
  name_ = name;
  child_seconds_ = 0.0;
  parent_ = t_top;
  t_top = this;
  active_ = true;
  TraceRecorder& rec = TraceRecorder::instance();
  trace_start_us_ = rec.active() ? rec.now_us() : -1.0;
  start_ = std::chrono::steady_clock::now();  // last: exclude setup cost
}

void ProfileScope::exit() {
  const auto end = std::chrono::steady_clock::now();
  const double total =
      std::chrono::duration<double>(end - start_).count();
  double self = total - child_seconds_;
  if (self < 0.0) self = 0.0;  // clock granularity can make this tiny-negative
  t_top = parent_;
  if (parent_ != nullptr && parent_->active_) {
    parent_->child_seconds_ += total;
  }
  Profiler::instance().record(name_, total, self);
  if (trace_start_us_ >= 0.0) {
    TraceRecorder& rec = TraceRecorder::instance();
    if (rec.active()) {
      rec.record_complete(name_, "profile", trace_start_us_,
                          rec.now_us() - trace_start_us_);
    }
  }
  active_ = false;
}

}  // namespace sttram::obs
