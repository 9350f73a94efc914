// Shared machinery of the end-to-end benchmark: options, sample
// statistics, result digests, the in-memory span tracer and the
// workload interface every benchmark workload implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sttram/engine/thread_pool.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;      ///< small inputs, for the benchmark's own tests
  std::string root = "."; ///< checkout root (campaign files, outputs)
  std::string out_dir = ".bench_out";
  std::string reference;  ///< reference digest file
};

// ------------------------------------------------------------ statistics

double median(std::vector<double> v);
/// Linear-interpolated percentile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --------------------------------------------------------------- digest

/// FNV-1a over the exact bits of a result, so any changed output bit
/// changes the digest.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(const std::string& s);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --------------------------------------------------------------- checks

/// Tally of output checks; every check is one attempt.
class Checks {
 public:
  /// Records one check; returns `ok`.  A failed check prints `what` to
  /// stderr.
  bool expect(bool ok, const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// --------------------------------------------------------------- tracer

/// In-memory span recorder.  Spans are recorded by the benchmark's own
/// code around each public library call (single caller thread), kept in
/// memory and written out once at exit.  Disabled, a span costs one
/// branch.
class Tracer {
 public:
  /// One span.  A merged span stands for every call of one name under
  /// one parent: it runs from the first call's start to the last call's
  /// end, and `busy_ns` sums the calls' own durations.
  struct Span {
    std::uint32_t name = 0;  ///< index into names_
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    std::uint32_t calls = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t busy_ns = 0;
  };

  /// RAII span: opens on construction, closes on destruction.  With
  /// `merge`, repeated calls under one parent share one Span record
  /// (for per-block calls in hot loops).
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, bool merge = false);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int32_t index_ = -1;
    std::int64_t start_ns_ = 0;
  };

  bool enabled = false;

  /// Starts a new run id (one closed-loop job); spans opened afterwards
  /// carry it.
  void begin_run() { ++run_; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Total and self time (span minus the part covered by its child
  /// spans) per span name, in seconds, over every recorded span.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
    std::size_t count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Sum of the durations of spans named `name` opened since span index
  /// `from` (spans().size() taken before the work).
  [[nodiscard]] double total_since(std::size_t from,
                                   const std::string& name) const;

  /// Writes every span as CSV:
  /// id,parent,run,name,calls,start_us,end_us,busy_us,self_us.
  void write_csv(const std::string& path) const;

 private:
  std::uint32_t intern(const char* name);
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::map<std::pair<std::int32_t, std::uint32_t>, std::int32_t> merged_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<std::int32_t> stack_;
  std::uint32_t run_ = 0;
};

// -------------------------------------------------------------- workload

/// The two executors every workload is timed on.  At most four threads
/// exist at once: the 4-way pool's three workers plus the caller.
///
/// The constructor pins each thread of the 4-way pool (chunk k always
/// runs on the same thread, chunk 0 on the caller) to its own CPU.
/// Unpinned, a virtualized guest may stack every woken worker on the
/// waker's CPU for a whole run, which makes 4-thread times bimodal.
struct Pools {
  Pools();

  sttram::engine::ThreadPool t1{1};
  sttram::engine::ThreadPool t4{4};
};

/// A closed-loop batch job the benchmark times end to end.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs (from the seed), parses files and warms lazy state.
  /// Timed as part of set-up.
  virtual void setup(const Options& opt, Pools& pools) = 0;

  /// Work items one run completes (cells, instances, requests, reads).
  [[nodiscard]] virtual double items_per_run() const = 0;

  /// One job, start to result, on `exec`; returns the result digest.
  virtual std::string run(sttram::ParallelExecutor& exec) = 0;

  /// Output checks beyond thread-count agreement (goldens, known
  /// decisions, replays) on the latest run.
  virtual void verify(Pools& pools, Checks& checks) = 0;

  /// Traced run: measures this workload's per-layer metrics within
  /// about `budget_s` seconds, recording spans into `tracer`.
  virtual Metrics trace(Pools& pools, Tracer& tracer, Checks& checks,
                        double budget_s) = 0;

  /// One job decomposed into spanned public calls (the traced job);
  /// timed with the tracer on and off to give the tracing overhead.
  virtual void ladder_job(Pools& pools, Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_yield_workload();
std::unique_ptr<Workload> make_campaign_workload();
std::unique_ptr<Workload> make_controller_workload();
std::unique_ptr<Workload> make_spice_workload();

/// Every workload name, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name);

// ---------------------------------------------------------------- utils

/// Reads a whole file; throws sttram::Error when it cannot.
std::string read_file(const std::string& path);

/// Repeats `job` alternating between the variants until `budget_s` has
/// passed (at least `min_each` runs of each) and returns the per-variant
/// wall times in seconds.
std::vector<std::vector<double>> alternate(
    std::size_t variants, double budget_s, std::size_t min_each,
    const std::function<void(std::size_t variant)>& job);

/// Obs metrics + profiling on/off together (the `--metrics` switch).
void set_telemetry(bool on);

}  // namespace e2e
