#include "sttram/obs/profile.hpp"

#include <algorithm>

#include "sttram/io/json.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/trace.hpp"

namespace sttram::obs {

namespace detail {

std::atomic<unsigned> g_sinks{0};

void set_sink(unsigned sink, bool on) {
  if (on) {
    g_sinks.fetch_or(sink, std::memory_order_relaxed);
  } else {
    g_sinks.fetch_and(~sink, std::memory_order_relaxed);
  }
}

}  // namespace detail

namespace {

/// Top of the calling thread's stack of running scopes (parent-pointer
/// linked list; no allocation, push/pop are two pointer writes).
thread_local Scope* t_top = nullptr;

}  // namespace

void set_profiling_enabled(bool on) {
  detail::set_sink(detail::kProfileSink, on);
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

HistogramMetric& ScopeSite::histogram() {
  HistogramMetric* h = histogram_.load(std::memory_order_acquire);
  if (h == nullptr) {
    // Two threads may both resolve it; the registry hands both the same
    // handle.
    h = &Registry::instance().histogram(std::string(name_) + "_seconds");
    histogram_.store(h, std::memory_order_release);
  }
  return *h;
}

void Scope::enter(ScopeSite& site, unsigned sinks) {
  name_ = site.name();
  // Resolved here, not in exit(): a bad name throws from a constructor,
  // never from a destructor.
  if ((sinks & detail::kMetricsSink) != 0) histogram_ = &site.histogram();
  parent_ = t_top;
  t_top = this;
  sinks_ = sinks;
  start_ = std::chrono::steady_clock::now();  // last: exclude setup cost
}

void Scope::exit() {
  const auto end = std::chrono::steady_clock::now();
  const double total = std::chrono::duration<double>(end - start_).count();
  t_top = parent_;
  if (parent_ != nullptr) parent_->child_seconds_ += total;
  if ((sinks_ & detail::kProfileSink) != 0) {
    // Clock granularity can make the difference tiny-negative.
    Profiler::instance().record(name_, total,
                                std::max(0.0, total - child_seconds_));
  }
  if (histogram_ != nullptr) histogram_->record(total);
  if ((sinks_ & detail::kTraceSink) != 0) {
    TraceRecorder::instance().record(name_, start_, end);
  }
}

}  // namespace sttram::obs
