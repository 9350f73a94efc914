#include "sttram/engine/controller/controller.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"
#include "sttram/stats/rng.hpp"

namespace sttram::engine::controller {
namespace {

/// Ziggurat sampler for the unit exponential (Marsaglia & Tsang 2000,
/// 256 layers): one 64-bit draw and one table lookup on the ~98 % fast
/// path, libm log/exp only for the tail and the layer-edge rejection.
/// The direct -log(1-u) transform costs a libm call per request and
/// dominated request generation at chip scale.
class ZigguratExp {
 public:
  ZigguratExp() {
    constexpr double m = 4294967296.0;  // 2^32
    double de = kR;
    double te = kR;
    const double q = kV / std::exp(-de);
    ke_[0] = static_cast<std::uint32_t>((de / q) * m);
    ke_[1] = 0;
    we_[0] = q / m;
    we_[255] = de / m;
    fe_[0] = 1.0;
    fe_[255] = std::exp(-de);
    for (int i = 254; i >= 1; --i) {
      de = -std::log(kV / de + std::exp(-de));
      ke_[i + 1] = static_cast<std::uint32_t>((de / te) * m);
      te = de;
      fe_[i] = std::exp(-de);
      we_[i] = de / m;
    }
  }

  double sample(Xoshiro256& rng) const {
    for (;;) {
      const std::uint32_t jz =
          static_cast<std::uint32_t>(rng.next_u64() >> 32);
      const std::uint32_t iz = jz & 255u;
      if (jz < ke_[iz]) return jz * we_[iz];  // inside layer iz
      if (iz == 0) {
        // Tail beyond kR: memorylessness makes it kR + Exp(1); 1-u is
        // in (0, 1], so the log stays finite.
        return kR - std::log(1.0 - rng.next_double());
      }
      const double x = jz * we_[iz];
      // Layer-edge wedge: accept against the true density.
      if (fe_[iz] + rng.next_double() * (fe_[iz - 1] - fe_[iz]) <
          std::exp(-x)) {
        return x;
      }
    }
  }

 private:
  /// Right edge of the base layer and per-layer area, from the paper.
  static constexpr double kR = 7.697117470131487;
  static constexpr double kV = 3.949659822581572e-3;
  std::uint32_t ke_[256];
  double we_[256];
  double fe_[256];
};

const ZigguratExp& ziggurat_exp() {
  static const ZigguratExp table;
  return table;
}

double sample_exponential(Xoshiro256& rng, double mean,
                          const ZigguratExp& zig) {
  return mean * zig.sample(rng);
}

/// Maps a uniform 32-bit draw onto [0, n) with a multiply-high instead
/// of a modulo (Lemire's bounded-range trick).  The mapping is mildly
/// biased for n that do not divide 2^32 — irrelevant for a synthetic
/// workload, and a single 64-bit multiply on the request-generation
/// hot path.
std::uint32_t bounded32(std::uint64_t draw32, std::uint64_t n) {
  return static_cast<std::uint32_t>((draw32 * n) >> 32);
}

/// Requests one generation block holds: a block's reads are the fault
/// hook's batch, so it holds enough of them to fill the counting
/// kernel's lane strips, and stays in L1.
constexpr std::size_t kGenerationBlock = kFaultHintBatch;

/// Lazy per-channel workload: open-loop Poisson arrivals spread
/// uniformly over the channel's banks, with per-bank row reuse.  One
/// block of kGenerationBlock requests is materialized at a time, so the
/// driving loop never holds a pre-generated stream — the chip-scale runs
/// would otherwise spend most of their footprint on workload vectors.
class ChannelWorkload {
 public:
  ChannelWorkload(const ControllerConfig& config, std::size_t channel,
                  std::size_t banks_in_channel, double mean_interarrival)
      : rng_(Xoshiro256(config.seed).fork(channel)),
        zig_(&ziggurat_exp()),
        read_threshold_(bernoulli_threshold32(config.read_fraction)),
        locality_threshold_(bernoulli_threshold32(config.row_locality)),
        rows_(config.rows),
        banks_(banks_in_channel),
        mean_interarrival_(mean_interarrival),
        last_row_(banks_in_channel, 0) {}

  /// Draws the next `count` requests, ids first, first + 1, ..., into
  /// `out`.
  void fill(std::uint64_t first, std::size_t count, MemRequest* out) {
    for (std::size_t i = 0; i < count; ++i) out[i] = next(first + i);
  }

 private:
  MemRequest next(std::uint64_t id) {
    clock_ += sample_exponential(rng_, mean_interarrival_, *zig_);
    MemRequest r;
    r.id = id;
    r.arrival = clock_;
    // One draw covers the two Bernoulli decisions (op from the high
    // half, locality from the low half) and a second covers the two
    // uniform indices — 32 bits of resolution each, plenty for a
    // synthetic workload, and two fewer RNG advances per request.
    const std::uint64_t coin = rng_.next_u64();
    const std::uint64_t pick = rng_.next_u64();
    r.op = (coin >> 32) < read_threshold_ ? Op::kRead : Op::kWrite;
    r.bank = bounded32(pick >> 32, banks_);
    // Row locality: reuse the bank's last row (an FR-FCFS row-hit
    // opportunity) or touch a fresh uniform one.
    if (rows_ > 1 && (coin & 0xffffffffu) < locality_threshold_) {
      r.row = last_row_[r.bank];
    } else {
      r.row = bounded32(pick & 0xffffffffu, rows_);
      last_row_[r.bank] = r.row;
    }
    return r;
  }

  Xoshiro256 rng_;
  const ZigguratExp* zig_;
  std::uint64_t read_threshold_;
  std::uint64_t locality_threshold_;
  std::size_t rows_;
  std::size_t banks_;
  double mean_interarrival_;
  double clock_ = 0.0;
  std::vector<std::uint32_t> last_row_;
};

/// Simulates one channel end to end (its own RNG stream, its own
/// contiguous id range) and leaves the stats in `out` — the only state
/// the chunk body writes, per the ParallelExecutor contract.
void run_channel(const ControllerConfig& config, const CommandTiming& timing,
                 std::size_t channel, std::size_t banks_in_channel,
                 double mean_interarrival, ChannelStats& out) {
  ChannelConfig cc;
  cc.banks = banks_in_channel;
  cc.timing = timing;
  cc.scheduler = config.scheduler;
  cc.starvation_cap = config.starvation_cap;
  cc.coalescing = config.coalescing;
  cc.faults = config.faults;
  ChannelSim sim(cc);

  const ChunkRange ids =
      chunk_range(config.requests, config.channels, channel);
  const std::size_t n = ids.size();
  ChannelWorkload gen(config, channel, banks_in_channel, mean_interarrival);

  std::size_t issued = 0;
  std::size_t completed = 0;
  MemRequest block[kGenerationBlock];
  std::size_t at = 0;  // block[at] is the next request to submit
  // Each block's reads are the fault hook's batch: they leave it with
  // their hints before the first of them reaches a bank.
  const auto refill = [&] {
    const std::size_t count = std::min(kGenerationBlock, n - issued);
    gen.fill(ids.begin + issued, count, block);
    if (config.faults != nullptr) hint_reads(*config.faults, block, count);
    at = 0;
  };
  if (n > 0) refill();
  while (completed < n) {
    // Completions at the same instant run first so a same-time arrival
    // sees the freed bank (the bank_sim merge-order convention).
    if (!sim.idle() &&
        (issued == n || sim.next_completion_time() <= block[at].arrival)) {
      completed += sim.step();
    } else {
      sim.submit(block[at]);
      ++issued;
      if (++at == kGenerationBlock && issued < n) refill();
    }
  }
  out = sim.stats();
}

}  // namespace

std::uint64_t bernoulli_threshold32(double p) {
  return p >= 1.0 ? std::uint64_t{1} << 32
                  : static_cast<std::uint64_t>(p * 4294967296.0);
}

ControllerReport run_controller_traffic(const ControllerConfig& config,
                                        ParallelExecutor* executor) {
  require(config.channels > 0, "run_controller_traffic: channels must be > 0");
  require(config.ranks > 0, "run_controller_traffic: ranks must be > 0");
  require(config.banks > 0, "run_controller_traffic: banks must be > 0");
  require(config.rows > 0, "run_controller_traffic: rows must be > 0");
  require(config.requests >= config.channels,
          "run_controller_traffic: need at least one request per channel");
  require(config.word_bits > 0, "run_controller_traffic: word_bits must be > 0");
  require(config.read_fraction >= 0.0 && config.read_fraction <= 1.0,
          "run_controller_traffic: read_fraction must be in [0, 1]");
  require(config.utilization > 0.0 && config.utilization < 1.0,
          "run_controller_traffic: utilization must be in (0, 1)");
  require(config.row_locality >= 0.0 && config.row_locality <= 1.0,
          "run_controller_traffic: row_locality must be in [0, 1]");

  const CommandTiming timing = scheme_command_timing(config.scheme, config.cost);
  const std::size_t banks_in_channel = config.ranks * config.banks;
  // Offered load per bank: the mean access occupancy plus the expected
  // row-management overhead of a non-local access, scaled so each bank
  // sees `utilization` of its capacity (banks are picked uniformly).
  const double avg_access =
      config.read_fraction * timing.t_read.value() +
      (1.0 - config.read_fraction) * timing.t_write.value();
  const double row_overhead = (1.0 - config.row_locality) *
                              (timing.t_rcd.value() + timing.t_rp.value());
  const double mean_interarrival =
      (avg_access + row_overhead) /
      (config.utilization * static_cast<double>(banks_in_channel));

  // Channel shards: pre-allocated disjoint slots, one per channel; the
  // chunk body writes nothing else, so any thread count produces the
  // same shard contents.
  std::vector<ChannelStats> shards(config.channels);
  {
    STTRAM_OBS_SCOPE("controller.simulate");
    const auto body = [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t c = begin; c < end; ++c) {
        run_channel(config, timing, c, banks_in_channel, mean_interarrival,
                    shards[c]);
      }
    };
    if (executor != nullptr) {
      executor->for_chunks(config.channels, body);
    } else {
      body(0, 0, config.channels);
    }
  }

  // Serial reduction, channel order — the floating-point sums below are
  // part of the bit-identity contract, so they never move into the
  // parallel region.
  STTRAM_OBS_SCOPE("controller.reduce");
  ControllerReport report;
  report.scheme = scheme_row(config.scheme).label;
  report.scheduler = to_string(config.scheduler);
  report.channels = config.channels;
  report.ranks = config.ranks;
  report.banks = config.banks;
  report.rows = config.rows;
  report.timing = timing;
  report.faults_enabled = config.faults != nullptr;
  report.channel.reserve(config.channels);

  double latency_sum = 0.0;
  double queue_wait_sum = 0.0;
  for (std::size_t c = 0; c < config.channels; ++c) {
    const ChannelStats& s = shards[c];
    ChannelReport ch;
    ch.requests = s.requests();
    ch.reads = s.reads;
    ch.writes = s.writes;
    ch.row_hits = s.row_hits;
    ch.row_misses = s.row_misses;
    ch.row_conflicts = s.row_conflicts;
    ch.coalesced_reads = s.coalesced_reads;
    ch.starvation_promotions = s.starvation_promotions;
    ch.peak_queue_depth = s.peak_queue_depth;
    ch.makespan = Second(s.makespan);
    ch.mean_latency =
        Second(ch.requests > 0
                   ? s.latency_sum / static_cast<double>(ch.requests)
                   : 0.0);
    ch.p99_latency = Second(s.latency_hist.quantile(0.99));
    if (s.makespan > 0.0) {
      ch.bandwidth_mbps = static_cast<double>(ch.requests) *
                          static_cast<double>(config.word_bits) /
                          s.makespan / 1e6;
      ch.avg_bank_utilization =
          s.busy_time /
          (static_cast<double>(banks_in_channel) * s.makespan);
    }
    ch.energy = Joule(s.energy_j);
    ch.latency_hist = s.latency_hist;

    report.requests += ch.requests;
    report.reads += ch.reads;
    report.writes += ch.writes;
    report.row_hits += ch.row_hits;
    report.row_misses += ch.row_misses;
    report.row_conflicts += ch.row_conflicts;
    report.coalesced_reads += ch.coalesced_reads;
    report.starvation_promotions += ch.starvation_promotions;
    report.peak_queue_depth =
        std::max(report.peak_queue_depth, ch.peak_queue_depth);
    report.makespan = max(report.makespan, ch.makespan);
    report.max_latency = max(report.max_latency, Second(s.max_latency));
    report.total_bandwidth_mbps += ch.bandwidth_mbps;
    report.total_energy += ch.energy;
    latency_sum += s.latency_sum;
    queue_wait_sum += s.queue_wait_sum;
    report.latency_hist.merge(s.latency_hist);
    report.faults += s.faults;
    report.channel.push_back(std::move(ch));
  }

  if (report.requests > 0) {
    const double n = static_cast<double>(report.requests);
    report.mean_latency = Second(latency_sum / n);
    report.mean_queue_wait = Second(queue_wait_sum / n);
    report.p50_latency = Second(report.latency_hist.quantile(0.50));
    report.p90_latency = Second(report.latency_hist.quantile(0.90));
    report.p99_latency = Second(report.latency_hist.quantile(0.99));
    report.p999_latency = Second(report.latency_hist.quantile(0.999));
    const std::size_t served_rows =
        report.row_hits + report.row_misses + report.row_conflicts;
    if (served_rows > 0) {
      report.row_hit_rate = static_cast<double>(report.row_hits) /
                            static_cast<double>(served_rows);
    }
    const double bits = n * static_cast<double>(config.word_bits);
    report.energy_per_bit_pj = report.total_energy.value() * 1e12 / bits;
  }

  if (obs::metrics_enabled()) {
    obs::Registry& reg = obs::Registry::instance();
    reg.histogram("controller.latency_seconds").merge(report.latency_hist);
    for (std::size_t c = 0; c < report.channel.size(); ++c) {
      const std::string prefix =
          "controller.channel" + std::to_string(c) + ".";
      reg.histogram(prefix + "latency_seconds")
          .merge(report.channel[c].latency_hist);
      reg.gauge(prefix + "bandwidth_mbps")
          .set(report.channel[c].bandwidth_mbps);
      reg.gauge(prefix + "bank_utilization")
          .set(report.channel[c].avg_bank_utilization);
    }
  }
  STTRAM_OBS_ADD("controller.requests", report.requests);
  STTRAM_OBS_ADD("controller.reads", report.reads);
  STTRAM_OBS_ADD("controller.writes", report.writes);
  STTRAM_OBS_ADD("controller.row_hits", report.row_hits);
  STTRAM_OBS_ADD("controller.row_misses", report.row_misses);
  STTRAM_OBS_ADD("controller.row_conflicts", report.row_conflicts);
  STTRAM_OBS_ADD("controller.coalesced_reads", report.coalesced_reads);
  STTRAM_OBS_ADD("controller.starvation_promotions",
                 report.starvation_promotions);
  STTRAM_OBS_SET_GAUGE("controller.row_hit_rate", report.row_hit_rate);
  STTRAM_OBS_SET_GAUGE("controller.bandwidth_mbps",
                       report.total_bandwidth_mbps);
  if (report.faults_enabled) publish_fault_counters(report.faults);
  return report;
}

}  // namespace sttram::engine::controller
