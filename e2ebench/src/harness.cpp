#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"

namespace e2e {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "e2ebench: check failed: " << what << "\n";
  }
  return ok;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, bool merge) {
  if (!tracer.enabled) return;
  tracer_ = &tracer;
  const std::uint32_t id = tracer.intern(name);
  const std::int32_t parent = tracer.stack_.empty() ? -1 : tracer.stack_.back();
  if (merge) {
    const auto [it, fresh] = tracer.merged_.try_emplace(
        {parent, id}, static_cast<std::int32_t>(tracer.spans_.size()));
    index_ = it->second;
    if (!fresh) {
      tracer.stack_.push_back(index_);
      start_ns_ = tracer.now_ns();
      return;
    }
  } else {
    index_ = static_cast<std::int32_t>(tracer.spans_.size());
  }
  Span s;
  s.name = id;
  s.parent = parent;
  s.run = tracer.run_;
  tracer.spans_.push_back(s);
  tracer.stack_.push_back(index_);
  start_ns_ = tracer.now_ns();
  tracer.spans_.back().start_ns = start_ns_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = tracer_->now_ns();
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = end;
  s.busy_ns += end - start_ns_;
  s.calls += 1;
  tracer_->stack_.pop_back();
}

std::uint32_t Tracer::intern(const char* name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(name, id);
  return id;
}

namespace {

/// Per-span self time: busy time minus the busy time of direct children
/// (children nest strictly inside their parent on the one caller thread).
std::vector<std::int64_t> self_ns(const std::vector<Tracer::Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].busy_ns;
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.busy_ns;
  }
  return self;
}

}  // namespace

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<std::int64_t> self = self_ns(spans_);
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[names_[spans_[i].name]];
    t.total_s += 1e-9 * static_cast<double>(spans_[i].busy_ns);
    t.self_s += 1e-9 * static_cast<double>(self[i]);
    t.count += spans_[i].calls;
  }
  return out;
}

double Tracer::total_since(std::size_t from, const std::string& name) const {
  const auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return 0.0;
  std::int64_t ns = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == it->second) ns += spans_[i].busy_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  sttram::require(static_cast<bool>(out), "cannot write " + path);
  const std::vector<std::int64_t> self = self_ns(spans_);
  out << "id,parent,run,name,calls,start_us,end_us,busy_us,self_us\n";
  char buf[64];
  const auto us = [&buf](std::int64_t ns) {
    std::snprintf(buf, sizeof buf, "%.3f", 1e-3 * static_cast<double>(ns));
    return std::string(buf);
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.run << ',' << names_[s.name]
        << ',' << s.calls << ',' << us(s.start_ns) << ',' << us(s.end_ns)
        << ',' << us(s.busy_ns) << ',' << us(self[i]) << '\n';
  }
}

Pools::Pools() {
  // The CPUs this process may use, read once before anything is pinned.
  static const std::vector<int> cpus = [] {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) out.push_back(c);
    }
    return out;
  }();
  if (cpus.empty()) return;
  t4.for_chunks(t4.thread_count(), [](std::size_t chunk, std::size_t,
                                      std::size_t) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[chunk % cpus.size()], &one);
    // Best effort: a thread left unpinned still runs, only less steadily.
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
  });
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "yield_1mbit", "campaign_suite", "controller_mixed", "spice_reads"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "yield_1mbit") return make_yield_workload();
  if (name == "campaign_suite") return make_campaign_workload();
  if (name == "controller_mixed") return make_controller_workload();
  if (name == "spice_reads") return make_spice_workload();
  return nullptr;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  sttram::require(static_cast<bool>(in), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::vector<double>> alternate(
    std::size_t variants, double budget_s, std::size_t min_each,
    const std::function<void(std::size_t)>& job) {
  std::vector<std::vector<double>> walls(variants);
  const auto start = Clock::now();
  for (std::size_t round = 0;; ++round) {
    if (round >= min_each && seconds_since(start) >= budget_s) break;
    for (std::size_t v = 0; v < variants; ++v) {
      const auto t0 = Clock::now();
      job(v);
      walls[v].push_back(seconds_since(t0));
    }
  }
  return walls;
}

void set_telemetry(bool on) {
  sttram::obs::set_metrics_enabled(on);
  sttram::obs::set_profiling_enabled(on);
}

}  // namespace e2e
