// controller_mixed: run_controller_traffic at 4 channels x 2 ranks x 8
// banks x 64 rows, FR-FCFS at 70 % load, half reads, with the SECDED +
// retry fault hook on every read.  The event loop does the work; the
// device and sense layers are not on the path at all.
#include "harness.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/fault/traffic_faults.hpp"

namespace e2e {
namespace {

namespace ctrl = sttram::engine::controller;

class ControllerWorkload final : public Workload {
 public:
  void setup(const Options& opt, Pools& pools) override {
    cfg_.channels = 4;
    cfg_.ranks = 2;
    cfg_.banks = 8;
    cfg_.rows = 64;
    cfg_.scheduler = ctrl::SchedulerPolicy::kFrFcfs;
    cfg_.utilization = 0.7;
    cfg_.row_locality = 0.6;
    cfg_.read_fraction = 0.5;
    cfg_.requests = opt.tiny ? 20000 : 1000000;
    cfg_.seed = opt.seed;
    sttram::fault::TrafficFaultConfig fc;
    fc.raw_ber = 1e-3;
    fc.ecc = true;
    fc.max_attempts = 3;
    const sttram::engine::BankTiming timing =
        sttram::engine::scheme_bank_timing(cfg_.scheme, cfg_.cost);
    fc.retry_latency = timing.read_service;
    fc.retry_energy = timing.read_energy;
    fc.seed = opt.seed ^ 0x5717fa7ee1dULL;
    hook_ = std::make_unique<sttram::fault::TrafficFaultModel>(fc);
    cfg_.faults = hook_.get();
    // Warm both pools on a short run.
    ctrl::ControllerConfig warm = cfg_;
    warm.requests = 65536;
    ctrl::run_controller_traffic(warm, &pools.t1);
    ctrl::run_controller_traffic(warm, &pools.t4);
  }

  [[nodiscard]] double items_per_run() const override {
    return static_cast<double>(cfg_.requests);
  }

  std::string run(sttram::ParallelExecutor& exec) override {
    last_ = ctrl::run_controller_traffic(cfg_, &exec);
    const ctrl::ControllerReport& r = last_;
    Digest d;
    for (const std::size_t n :
         {r.requests, r.reads, r.writes, r.row_hits, r.row_misses,
          r.row_conflicts, r.coalesced_reads, r.starvation_promotions,
          r.peak_queue_depth}) {
      d.add(std::uint64_t{n});
    }
    for (const double v :
         {r.makespan.value(), r.mean_latency.value(), r.p50_latency.value(),
          r.p90_latency.value(), r.p99_latency.value(),
          r.p999_latency.value(), r.max_latency.value(),
          r.mean_queue_wait.value(), r.total_bandwidth_mbps,
          r.total_energy.value(), r.energy_per_bit_pj}) {
      d.add(v);
    }
    const sttram::engine::TrafficFaultStats& f = r.faults;
    for (const std::uint64_t n :
         {f.faulty_reads, f.retries, f.raw_bit_errors, f.corrected_words,
          f.uncorrectable_words, f.silent_corruptions}) {
      d.add(n);
    }
    d.add(f.extra_latency.value()).add(f.extra_energy.value());
    return d.hex();
  }

  void verify(Pools&, Checks& checks) override {
    const ctrl::ControllerReport& r = last_;
    checks.expect(r.requests == cfg_.requests &&
                      r.reads + r.writes == r.requests && r.reads > 0 &&
                      r.writes > 0,
                  "controller: requests in != reads + writes out");
    checks.expect(r.row_hits + r.row_misses + r.row_conflicts > 0,
                  "controller: no row-buffer activity");
    checks.expect(r.p50_latency <= r.p99_latency &&
                      r.p99_latency <= r.max_latency,
                  "controller: latency percentiles out of order");
    checks.expect(r.faults_enabled && r.faults.faulty_reads > 0 &&
                      r.faults.corrected_words > 0,
                  "controller: the fault hook saw no faults");
  }

  Metrics trace(Pools& pools, Tracer& tracer, Checks& checks,
                double budget_s) override {
    const std::size_t min_each = budget_s > 0.0 ? 3 : 1;
    // Variants: 1 thread with the hook, 1 thread without, 4 threads with.
    std::string digests[2];
    const auto walls =
        alternate(3, 0.6 * budget_s, min_each, [&](std::size_t v) {
          tracer.begin_run();
          if (v == 1) {
            ctrl::ControllerConfig bare = cfg_;
            bare.faults = nullptr;
            Tracer::Scope s(tracer, "engine.run_controller_traffic.nohook");
            ctrl::run_controller_traffic(bare, &pools.t1);
            return;
          }
          Tracer::Scope s(tracer, v == 0 ? "engine.run_controller_traffic.t1"
                                         : "engine.run_controller_traffic.t4");
          const std::string d =
              run(v == 0 ? static_cast<sttram::ParallelExecutor&>(pools.t1)
                         : pools.t4);
          digests[v / 2] = d;
        });
    checks.expect(digests[0] == digests[1],
                  "controller: 1-thread and 4-thread digests differ");

    const auto obs_walls =
        alternate(2, 0.25 * budget_s, min_each, [&](std::size_t v) {
          set_telemetry(v == 0);
          ctrl::run_controller_traffic(cfg_, &pools.t1);
        });
    set_telemetry(false);

    // The hook alone, on as many ids as the run had reads.
    const ctrl::ControllerReport& r = last_;
    std::uint64_t attempts = 0;
    const auto t0 = Clock::now();
    {
      Tracer::Scope s(tracer, "fault.read_outcome");
      for (std::uint64_t id = 0; id < r.reads; ++id) {
        attempts += hook_->read_outcome(id).attempts;
      }
    }
    const double outcome_s = seconds_since(t0);
    checks.expect(attempts >= r.reads, "controller: hook attempts < reads");

    const double reads = static_cast<double>(r.reads);
    const double on = median(walls[0]);
    const double off = median(walls[1]);
    Metrics m;
    m["engine.ctrl.ns_per_req"] = {
        1e9 * off / static_cast<double>(cfg_.requests), "ns"};
    m["fault.hook.ns_per_read"] = {1e9 * (on - off) / reads, "ns"};
    m["fault.read_outcome_ns"] = {1e9 * outcome_s / reads, "ns"};
    m["engine.ctrl.t4_eff"] = {on / (4.0 * median(walls[2])), "fraction"};
    m["engine.row_hit_rate"] = {r.row_hit_rate, "fraction"};
    m["engine.coalesced_frac"] = {
        static_cast<double>(r.coalesced_reads) / reads, "fraction"};
    m["engine.queue_wait_frac"] = {
        r.mean_queue_wait.value() / r.mean_latency.value(), "fraction"};
    m["engine.peak_queue_depth"] = {static_cast<double>(r.peak_queue_depth),
                                    "count"};
    m["fault.retries_per_read"] = {
        static_cast<double>(r.faults.retries) / reads, "count"};
    m["model.p99_latency_ns"] = {1e9 * r.p99_latency.value(), "ns"};
    m["model.bandwidth_mbps"] = {r.total_bandwidth_mbps, "Mbit/s"};
    m["model.energy_pj_per_bit"] = {r.energy_per_bit_pj, "pJ"};
    m["obs.metrics_on_ratio.controller"] = {
        median(obs_walls[1]) / median(obs_walls[0]), "ratio"};
    return m;
  }

  void ladder_job(Pools& pools, Tracer& tracer) override {
    tracer.begin_run();
    Tracer::Scope s(tracer, "engine.run_controller_traffic.t1");
    run(pools.t1);
  }

 private:
  ctrl::ControllerConfig cfg_;
  std::unique_ptr<sttram::fault::TrafficFaultModel> hook_;
  ctrl::ControllerReport last_;
};

}  // namespace

std::unique_ptr<Workload> make_controller_workload() {
  return std::make_unique<ControllerWorkload>();
}

}  // namespace e2e
