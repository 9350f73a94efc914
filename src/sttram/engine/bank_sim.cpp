#include "sttram/engine/bank_sim.hpp"

#include <algorithm>

#include "sttram/common/error.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/stats/distributions.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram::engine {

BankController::BankController(std::size_t banks, SchedulingPolicy policy,
                               const BankTiming& timing,
                               const ReadFaultModel* faults)
    : timing_(timing), faults_(faults) {
  require(banks > 0, "BankController: need at least one bank");
  require(timing.read_service.value() > 0.0 &&
              timing.write_service.value() > 0.0,
          "BankController: service times must be > 0");
  banks_.reserve(banks);
  for (std::size_t b = 0; b < banks; ++b) banks_.emplace_back(policy);
}

void BankController::start_service(Bank& bank, const Request& request,
                                   Second at) {
  Second service = request.op == Op::kRead ? timing_.read_service
                                           : timing_.write_service;
  if (faults_ != nullptr && request.op == Op::kRead) {
    // One hook call per read (requests enter service exactly once); the
    // outcome depends only on the request id, so stats and schedules are
    // reproducible regardless of bank interleaving.
    const ReadFaultOutcome outcome =
        faults_->hinted_outcome(request.id, request.fault_hint);
    service += outcome.extra_latency;
    fault_stats_.add(outcome);
  }
  bank.busy = true;
  bank.current = request;
  bank.current_start = max(at, request.arrival);
  bank.current_finish = bank.current_start + service;
  bank.busy_time += service;
  ++in_flight_;
}

void BankController::submit(const Request& request) {
  require(request.bank < banks_.size(),
          "BankController::submit: bank index out of range");
  Bank& bank = banks_[request.bank];
  ++pending_;
  if (!bank.busy) {
    start_service(bank, request, request.arrival);
    return;
  }
  bank.queue.push(request);
  peak_depth_ = std::max(peak_depth_, bank.queue.size());
}

std::size_t BankController::earliest_busy_bank() const {
  std::size_t best = banks_.size();
  for (std::size_t b = 0; b < banks_.size(); ++b) {
    const Bank& bank = banks_[b];
    if (!bank.busy) continue;
    if (best == banks_.size() ||
        bank.current_finish < banks_[best].current_finish ||
        (bank.current_finish == banks_[best].current_finish &&
         bank.current.id < banks_[best].current.id)) {
      best = b;
    }
  }
  require(best < banks_.size(),
          "BankController: no in-flight request to complete");
  return best;
}

Second BankController::next_completion_time() const {
  return banks_[earliest_busy_bank()].current_finish;
}

CompletedRequest BankController::step() {
  Bank& bank = banks_[earliest_busy_bank()];
  CompletedRequest done;
  done.request = bank.current;
  done.start = bank.current_start;
  done.finish = bank.current_finish;
  bank.busy = false;
  --in_flight_;
  --pending_;
  if (!bank.queue.empty()) {
    // Every queued request arrived while the bank was busy, so service
    // starts back-to-back at the completion instant.
    start_service(bank, bank.queue.pop(), done.finish);
  }
  return done;
}

Second BankController::busy_time(std::size_t bank) const {
  require(bank < banks_.size(), "BankController::busy_time: bad bank");
  return banks_[bank].busy_time;
}

namespace {

struct RunAccumulator {
  obs::Histogram latency_hist;
  obs::Histogram read_latency_hist;
  obs::Histogram write_latency_hist;
  RunningStats latency;
  RunningStats read_latency;
  RunningStats write_latency;
  RunningStats queue_wait;
  Second makespan{0.0};
  std::size_t reads = 0;
  std::size_t writes = 0;
  std::vector<CompletedRequest> completions;
  bool keep = false;

  void record(const CompletedRequest& done) {
    const double l = done.latency().value();
    latency_hist.record(l);
    latency.add(l);
    queue_wait.add(done.queue_wait().value());
    if (done.request.op == Op::kRead) {
      ++reads;
      read_latency.add(l);
      read_latency_hist.record(l);
    } else {
      ++writes;
      write_latency.add(l);
      write_latency_hist.record(l);
    }
    makespan = max(makespan, done.finish);
    if (keep) completions.push_back(done);
  }
};

/// Replays an arrival-sorted stream of n > 0 requests, drawn
/// kFaultHintBatch at a time by fill(first, count, block), as the
/// controller's channels draw theirs: each block's reads are the fault
/// hook's batch and leave it with their hints before the first of them
/// reaches a bank.
template <class Fill>
void simulate_open_loop(std::size_t n, const Fill& fill,
                        const ReadFaultModel* faults,
                        BankController& controller, RunAccumulator& acc) {
  Request block[kFaultHintBatch];
  std::size_t issued = 0;
  std::size_t at = 0;  // block[at] is the next request to submit
  const auto refill = [&] {
    const std::size_t count = std::min(kFaultHintBatch, n - issued);
    fill(issued, count, block);
    if (faults != nullptr) hint_reads(*faults, block, count);
    at = 0;
  };
  refill();
  std::size_t completed = 0;
  while (completed < n) {
    // Completions at the same instant run first so a same-time arrival
    // sees the freed bank — and the order stays independent of how the
    // stream was produced.
    if (!controller.idle() &&
        (issued == n ||
         controller.next_completion_time() <= block[at].arrival)) {
      acc.record(controller.step());
      ++completed;
    } else {
      controller.submit(block[at]);
      ++issued;
      if (++at == kFaultHintBatch && issued < n) refill();
    }
  }
}

/// Fixed client population: every client issues, blocks until its
/// request completes, thinks (exponential), then issues again.
void simulate_closed_loop(const TrafficConfig& config,
                          BankController& controller, RunAccumulator& acc) {
  require(config.clients > 0, "run_traffic: closed loop needs clients > 0");
  const Xoshiro256 master(config.seed);
  struct Client {
    Xoshiro256 rng;
    double next_issue = 0.0;
    bool blocked = false;
    std::uint64_t outstanding = 0;  ///< id of its request while blocked
  };
  std::vector<Client> clients;
  clients.reserve(config.clients);
  for (std::size_t c = 0; c < config.clients; ++c) {
    Client client{master.fork(c), 0.0, false, 0};
    client.next_issue =
        sample_exponential(client.rng, config.think_time.value());
    clients.push_back(std::move(client));
  }

  std::size_t issued = 0;
  std::size_t completed = 0;
  while (completed < config.requests) {
    // The next issue: earliest ready client (ties to the lowest index).
    std::size_t ready = clients.size();
    if (issued < config.requests) {
      for (std::size_t c = 0; c < clients.size(); ++c) {
        if (clients[c].blocked) continue;
        if (ready == clients.size() ||
            clients[c].next_issue < clients[ready].next_issue) {
          ready = c;
        }
      }
    }
    const bool can_issue = ready < clients.size();
    if (!controller.idle() &&
        (!can_issue || controller.next_completion_time().value() <=
                           clients[ready].next_issue)) {
      const CompletedRequest done = controller.step();
      acc.record(done);
      ++completed;
      // Each client has at most one request outstanding, so the blocked
      // client holding this id is its owner.
      std::size_t c = 0;
      while (!clients[c].blocked ||
             clients[c].outstanding != done.request.id) {
        ++c;
      }
      Client& owner = clients[c];
      owner.blocked = false;
      owner.next_issue =
          done.finish.value() +
          sample_exponential(owner.rng, config.think_time.value());
    } else {
      require(can_issue, "run_traffic: closed loop stalled");
      Client& client = clients[ready];
      Request r;
      r.id = issued;
      r.arrival = Second(client.next_issue);
      r.op = client.rng.next_double() < config.read_fraction ? Op::kRead
                                                             : Op::kWrite;
      r.bank =
          static_cast<std::uint32_t>(client.rng.next_u64() % config.banks);
      client.outstanding = r.id;
      client.blocked = true;
      controller.submit(r);
      ++issued;
    }
  }
}

}  // namespace

TrafficReport run_traffic(const TrafficConfig& config) {
  require(config.requests > 0, "run_traffic: need at least one request");
  require(config.banks > 0, "run_traffic: need at least one bank");
  require(config.word_bits > 0, "run_traffic: word_bits must be > 0");
  require(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
          "run_traffic: read_fraction must be in [0, 1]");

  BankTiming timing;
  PoissonWorkloadConfig poisson;
  {
    STTRAM_OBS_SCOPE("traffic.workload");
    timing = scheme_bank_timing(config.scheme, config.cost);
    if (config.workload == WorkloadKind::kPoisson) {
      require(config.utilization > 0.0 && config.utilization < 1.0,
              "run_traffic: utilization must be in (0, 1)");
      const Second avg_service =
          config.read_fraction * timing.read_service +
          (1.0 - config.read_fraction) * timing.write_service;
      // Per-bank offered load rho: the aggregate arrival rate is
      // banks * rho / avg_service (banks are picked uniformly).
      poisson.mean_interarrival =
          avg_service / (config.utilization *
                         static_cast<double>(config.banks));
      poisson.read_fraction = config.read_fraction;
      poisson.banks = config.banks;
      poisson.seed = config.seed;
    } else if (config.workload == WorkloadKind::kTrace) {
      require(!config.trace.empty(), "run_traffic: trace workload is empty");
      // The trace is replayed in place, so it must be in arrival order;
      // load_trace_csv sorts the traces it reads.
      const std::vector<Request>& trace = config.trace;
      for (std::size_t k = 0; k < trace.size(); ++k) {
        require(trace[k].bank < config.banks,
                "run_traffic: trace bank index out of range");
        if (k > 0 && trace[k].arrival < trace[k - 1].arrival) {
          throw InvalidArgument(
              "run_traffic: trace request " + std::to_string(k) +
              " arrives before request " + std::to_string(k - 1) +
              " (sort it by arrival, as load_trace_csv does)");
        }
      }
    }
  }

  BankController controller(config.banks, config.policy, timing,
                            config.faults);
  RunAccumulator acc;
  acc.keep = config.keep_completions;
  if (acc.keep) {
    acc.completions.reserve(config.workload == WorkloadKind::kTrace
                                ? config.trace.size()
                                : config.requests);
  }

  {
    STTRAM_OBS_SCOPE("traffic.simulate");
    if (config.workload == WorkloadKind::kClosedLoop) {
      simulate_closed_loop(config, controller, acc);
    } else if (config.workload == WorkloadKind::kTrace) {
      // The hint pass rewrites every read's hint, so none of a
      // caller-built trace's bytes survives.
      simulate_open_loop(
          config.trace.size(),
          [&](std::size_t first, std::size_t count, Request* out) {
            std::copy_n(config.trace.data() + first, count, out);
          },
          config.faults, controller, acc);
    } else {
      PoissonWorkload stream(poisson);
      simulate_open_loop(
          config.requests,
          [&](std::size_t, std::size_t count, Request* out) {
            stream.fill(count, out);
          },
          config.faults, controller, acc);
    }
  }

  STTRAM_OBS_SCOPE("traffic.reduce");
  TrafficReport report;
  report.scheme = scheme_row(config.scheme).label;
  report.requests = acc.reads + acc.writes;
  report.reads = acc.reads;
  report.writes = acc.writes;
  report.makespan = acc.makespan;
  report.mean_latency = Second(acc.latency.mean());
  report.max_latency = Second(acc.latency.max());
  report.p50_latency = Second(acc.latency_hist.quantile(0.50));
  report.p90_latency = Second(acc.latency_hist.quantile(0.90));
  report.p99_latency = Second(acc.latency_hist.quantile(0.99));
  report.p999_latency = Second(acc.latency_hist.quantile(0.999));
  report.mean_read_latency =
      Second(acc.reads > 0 ? acc.read_latency.mean() : 0.0);
  report.mean_write_latency =
      Second(acc.writes > 0 ? acc.write_latency.mean() : 0.0);
  report.mean_queue_wait = Second(acc.queue_wait.mean());
  const double bits = static_cast<double>(report.requests) *
                      static_cast<double>(config.word_bits);
  if (report.makespan.value() > 0.0) {
    report.sustained_bandwidth_mbps =
        bits / report.makespan.value() / 1e6;
  }
  report.bank_utilization.reserve(config.banks);
  double utilization_sum = 0.0;
  for (std::size_t b = 0; b < config.banks; ++b) {
    const double u = report.makespan.value() > 0.0
                         ? controller.busy_time(b) / report.makespan
                         : 0.0;
    report.bank_utilization.push_back(u);
    utilization_sum += u;
  }
  report.avg_bank_utilization =
      utilization_sum / static_cast<double>(config.banks);
  report.peak_queue_depth = controller.peak_queue_depth();
  report.total_energy = static_cast<double>(acc.reads) * timing.read_energy +
                        static_cast<double>(acc.writes) * timing.write_energy;
  if (config.faults != nullptr) {
    report.faults_enabled = true;
    report.faults = controller.fault_stats();
    report.total_energy += report.faults.extra_energy;
  }
  report.energy_per_bit_pj = report.total_energy.value() * 1e12 / bits;
  report.read_service = timing.read_service;
  report.write_service = timing.write_service;
  report.latency_hist = std::move(acc.latency_hist);
  report.read_latency_hist = std::move(acc.read_latency_hist);
  report.write_latency_hist = std::move(acc.write_latency_hist);
  report.completions = std::move(acc.completions);

  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::instance();
    reg.histogram("engine.latency_seconds").merge(report.latency_hist);
    reg.histogram("engine.read_latency_seconds")
        .merge(report.read_latency_hist);
    reg.histogram("engine.write_latency_seconds")
        .merge(report.write_latency_hist);
  }
  STTRAM_OBS_ADD("engine.requests", report.requests);
  STTRAM_OBS_ADD("engine.reads", report.reads);
  STTRAM_OBS_ADD("engine.writes", report.writes);
  STTRAM_OBS_SET_GAUGE("engine.queue_depth", report.peak_queue_depth);
  STTRAM_OBS_SET_GAUGE("engine.bank_utilization",
                       report.avg_bank_utilization);
  if (report.faults_enabled) publish_fault_counters(report.faults);
  return report;
}

}  // namespace sttram::engine
