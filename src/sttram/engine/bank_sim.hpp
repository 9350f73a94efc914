// Trace-driven discrete-event STT-RAM bank simulator.
//
// An N-bank memory services a request stream; every access occupies its
// bank for the sensing scheme's calibrated service time (from
// sim/timing_energy), so the scheme-level latency/energy differences the
// paper argues for become system-level bandwidth, loaded latency and
// energy numbers.  The engine is event-driven (arrival and completion
// events, ties broken by issue order) and fully deterministic for a
// given configuration — no wall-clock input, explicit seeds only.
//
// Cross-validation: a single-bank FCFS run under an open-loop Poisson
// read stream is exactly the M/D/1 queue of the analytic model in
// sim/throughput (tested to agree within a few percent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sttram/common/units.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/obs/histogram.hpp"
#include "sttram/sim/timing_energy.hpp"

namespace sttram::engine {

/// Per-request bank occupancy and energy of one scheme, taken from the
/// calibrated executable read operations (worst case over the stored
/// value) plus the scheme-independent write path.
struct BankTiming {
  Second read_service{0.0};
  Second write_service{0.0};
  Joule read_energy{0.0};
  Joule write_energy{0.0};
};

/// Throws InvalidArgument for a scheme without a read flow.
BankTiming scheme_bank_timing(SchemeId scheme,
                              const CostComparisonConfig& cost);

/// N banks of one scheme driven by an external event loop.  The caller
/// must interleave submit() and step() in global time order: only
/// submit a request whose arrival precedes next_completion_time().
class BankController {
 public:
  /// `faults`, when non-null, is consulted once per read request (with
  /// the request's fault_hint); its extra latency extends the bank
  /// occupancy and its activity is aggregated into fault_stats().  Null
  /// (the default) is the exact fault-free code path.
  BankController(std::size_t banks, SchedulingPolicy policy,
                 const BankTiming& timing,
                 const ReadFaultModel* faults = nullptr);

  /// Admits one request; starts service immediately if its bank is idle.
  void submit(const Request& request);

  /// True when no request is queued or in flight.
  [[nodiscard]] bool idle() const { return in_flight_ == 0; }
  /// Earliest outstanding completion (call only when !idle()).
  [[nodiscard]] Second next_completion_time() const;
  /// Retires the earliest outstanding completion and starts the bank's
  /// next queued request, if any.
  CompletedRequest step();

  [[nodiscard]] std::size_t banks() const { return banks_.size(); }
  /// Queued + in-flight requests across all banks.
  [[nodiscard]] std::size_t pending() const { return pending_; }
  /// Deepest any single bank queue ever got (in-flight excluded).
  [[nodiscard]] std::size_t peak_queue_depth() const { return peak_depth_; }
  /// Total service time a bank has accumulated.
  [[nodiscard]] Second busy_time(std::size_t bank) const;
  /// Accumulated fault/recovery activity (all zeros without a hook).
  [[nodiscard]] const TrafficFaultStats& fault_stats() const {
    return fault_stats_;
  }

 private:
  struct Bank {
    RequestQueue queue;
    bool busy = false;
    Request current{};
    Second current_start{0.0};
    Second current_finish{0.0};
    Second busy_time{0.0};

    explicit Bank(SchedulingPolicy policy) : queue(policy) {}
  };

  void start_service(Bank& bank, const Request& request, Second at);
  /// Index of the bank with the earliest in-flight completion (ties by
  /// lowest request id, so the order is reproducible).
  [[nodiscard]] std::size_t earliest_busy_bank() const;

  BankTiming timing_;
  std::vector<Bank> banks_;
  const ReadFaultModel* faults_ = nullptr;
  TrafficFaultStats fault_stats_;
  std::size_t in_flight_ = 0;
  std::size_t pending_ = 0;
  std::size_t peak_depth_ = 0;
};

/// How the request stream is produced.
enum class WorkloadKind : std::uint8_t {
  kPoisson,     ///< open loop, exponential interarrivals
  kClosedLoop,  ///< fixed client population with think time
  kTrace,       ///< replay TrafficConfig::trace
};

/// Full description of one traffic experiment.
struct TrafficConfig {
  SchemeId scheme = SchemeId::kNondestructive;  ///< one with a read flow
  CostComparisonConfig cost{};
  std::size_t banks = 4;
  SchedulingPolicy policy = SchedulingPolicy::kFcfs;
  WorkloadKind workload = WorkloadKind::kPoisson;
  std::size_t requests = 100000;
  double read_fraction = 0.7;
  std::size_t word_bits = 32;
  std::uint64_t seed = 1;
  /// Poisson: offered load per bank as a fraction of its service
  /// capacity (the rho of the M/D/1 cross-check).
  double utilization = 0.6;
  /// Closed loop: client population and mean (exponential) think time.
  std::size_t clients = 8;
  Second think_time{50e-9};
  /// Trace replay (workload == kTrace); see load_trace_csv().
  std::vector<Request> trace;
  /// Retain the per-request completion records in the report.
  bool keep_completions = false;
  /// Optional fault hook (not owned).  Null keeps the exact fault-free
  /// code path — reports are bit-identical to a run without the field.
  /// The open-loop workloads (Poisson, trace) hand the hook their reads
  /// in one batch pass before the simulation; closed-loop reads, drawn
  /// as the loop runs, reach it by id alone.
  const ReadFaultModel* faults = nullptr;
};

/// Measured figures of merit of one traffic run.
struct TrafficReport {
  std::string scheme;
  std::size_t requests = 0;
  std::size_t reads = 0;
  std::size_t writes = 0;
  Second makespan{0.0};           ///< last completion time
  Second mean_latency{0.0};       ///< arrival -> completion
  /// Percentiles come from `latency_hist` (log-bucketed, <= ~1.6 %
  /// relative bucketing error); mean/max are exact.
  Second p50_latency{0.0};
  Second p90_latency{0.0};
  Second p99_latency{0.0};
  Second p999_latency{0.0};
  Second max_latency{0.0};
  Second mean_read_latency{0.0};
  Second mean_write_latency{0.0};
  Second mean_queue_wait{0.0};
  double sustained_bandwidth_mbps = 0.0;  ///< word_bits * requests / makespan
  std::vector<double> bank_utilization;   ///< busy fraction per bank
  double avg_bank_utilization = 0.0;
  std::size_t peak_queue_depth = 0;
  Joule total_energy{0.0};
  double energy_per_bit_pj = 0.0;
  Second read_service{0.0};   ///< the scheme occupancy used
  Second write_service{0.0};
  /// Full latency distributions (seconds): overall and split by op.
  /// Always populated — they are how the percentile fields above are
  /// computed, not telemetry — so they carry the tail shape the scalar
  /// summary cannot.
  obs::Histogram latency_hist;
  obs::Histogram read_latency_hist;
  obs::Histogram write_latency_hist;
  std::vector<CompletedRequest> completions;  ///< when keep_completions
  bool faults_enabled = false;  ///< whether a fault hook was attached
  TrafficFaultStats faults;     ///< fault/recovery totals (zeros if off)
};

/// Runs the experiment.  Deterministic for a given config.
TrafficReport run_traffic(const TrafficConfig& config);

}  // namespace sttram::engine
