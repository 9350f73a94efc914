// One memory channel: ranks × banks with open-row state, an FR-FCFS
// command scheduler and an MSHR-style coalescing front end.
//
// The channel is driven by an external event loop exactly like
// BankController (submit requests in arrival order, interleaved with
// step() in global-time order), but accesses are scheduled at command
// granularity: each access pays its row-buffer outcome — hit (RD/WR
// only), miss (ACT + RD/WR) or conflict (PRE + ACT + RD/WR) — from the
// scheme's CommandTiming table.  The hot path is pure arithmetic over
// the collapsed table; no per-command event objects are allocated, so a
// channel sustains tens of millions of simulated requests per second.
//
// Scheduling (SchedulerPolicy::kFrFcfs): when a bank frees, the oldest
// pending access to the currently open row is served first (a row hit
// saves ACT/PRE); the oldest entry overall can be bypassed at most
// `starvation_cap` times before it is forced, which bounds starvation
// (tested in test_controller.cpp).  kFcfs is strict arrival order.
//
// Coalescing: a read arriving for a (bank, row) that already has a
// *queued* read is merged into it (one data access serves both); the
// merged request's latency is still measured from its own arrival.
// In-flight accesses are never merged, so service timing of started
// work is unaffected.
//
// Determinism: ties between simultaneous completions break by lowest
// bank index, and the scheduler depends only on queue contents — never
// on wall-clock or thread timing — so a channel run is a pure function
// of its request stream.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/engine/controller/command.hpp"
#include "sttram/engine/fault_hook.hpp"
#include "sttram/engine/request.hpp"
#include "sttram/obs/histogram.hpp"

namespace sttram::engine::controller {

/// How a freed bank picks its next pending access.
enum class SchedulerPolicy : std::uint8_t {
  kFcfs,    ///< strict arrival order
  kFrFcfs,  ///< row-hit-first with an aging cap (see file header)
};

[[nodiscard]] const char* to_string(SchedulerPolicy policy);

/// One access offered to a channel.  `bank` is the flat bank index
/// within the channel (rank * banks_per_rank + bank).
struct MemRequest {
  std::uint64_t id = 0;   ///< globally unique, monotonic per channel
  double arrival = 0.0;   ///< seconds
  Op op = Op::kRead;
  /// Engine-internal, in what was padding: the fault hook's hint for a
  /// read (engine/fault_hook.hpp), written by the controller's
  /// generation blocks.  Direct ChannelSim callers leave it 0 (no hint).
  std::uint8_t fault_hint = 0;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
};
static_assert(sizeof(MemRequest) == 32, "the hint byte must stay in padding");

struct ChannelConfig {
  std::size_t banks = 16;  ///< flat bank count (ranks * banks_per_rank)
  CommandTiming timing{};
  SchedulerPolicy scheduler = SchedulerPolicy::kFrFcfs;
  /// FR-FCFS aging cap: row hits may bypass the oldest pending access
  /// at most this many times before it is forced to the front.
  std::size_t starvation_cap = 8;
  bool coalescing = true;
  /// Optional per-read fault hook (not owned); null is the exact
  /// fault-free path.  Coalesced reads share the host access's data and
  /// draw no separate outcome.
  const ReadFaultModel* faults = nullptr;
};

/// Aggregated figures of one channel's run, accumulated online so the
/// driving loop never materializes completion records.
struct ChannelStats {
  std::size_t reads = 0;   ///< includes coalesced reads
  std::size_t writes = 0;
  std::size_t coalesced_reads = 0;
  std::size_t row_hits = 0;
  std::size_t row_misses = 0;
  std::size_t row_conflicts = 0;
  std::size_t starvation_promotions = 0;  ///< aging cap fired
  std::size_t peak_queue_depth = 0;
  double makespan = 0.0;       ///< last completion (seconds)
  double latency_sum = 0.0;    ///< arrival -> completion, summed
  double queue_wait_sum = 0.0; ///< arrival -> service start, summed
  double max_latency = 0.0;
  double busy_time = 0.0;      ///< bank occupancy, summed over banks
  double energy_j = 0.0;
  obs::Histogram latency_hist;
  TrafficFaultStats faults;

  [[nodiscard]] std::size_t requests() const { return reads + writes; }
};

class ChannelSim {
 public:
  explicit ChannelSim(const ChannelConfig& config);

  /// Admits one access.  The caller must keep global time order: only
  /// submit a request whose arrival precedes next_completion_time().
  /// The request either starts service, queues, or coalesces into a
  /// pending read.  Defined inline below: the driving event loops call
  /// this once per request, and inlining the whole submit/step path
  /// into the caller's translation unit is worth ~10 % chip-scale
  /// throughput.
  void submit(const MemRequest& request);

  [[nodiscard]] bool idle() const { return in_flight_ == 0; }
  /// Earliest outstanding completion (call only when !idle()).
  [[nodiscard]] double next_completion_time() const {
    return std::bit_cast<double>(key_[earliest_busy_bank()]);
  }
  /// Retires the earliest completion (host access plus any coalesced
  /// reads), accumulates it into stats() and schedules the bank's next
  /// pending access.  Returns how many requests retired.
  std::size_t step();

  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t banks() const { return banks_.size(); }

 private:
  struct Entry {
    MemRequest request;
    /// Arrival times of reads coalesced into this access (empty on the
    /// common path — no allocation until a merge happens).
    std::vector<double> coalesced;
  };

  /// Per-bank pending queue: a power-of-two ring over a flat vector.
  /// A deque here costs ~2x on the submit/pop hot paths (chunked
  /// iterators in the coalescing and FR-FCFS scans); the ring keeps
  /// both scans over contiguous memory.
  struct Ring {
    std::vector<Entry> slots;
    std::size_t head = 0;   ///< index of the oldest entry
    std::size_t count = 0;

    [[nodiscard]] bool empty() const { return count == 0; }
    [[nodiscard]] std::size_t size() const { return count; }
    [[nodiscard]] Entry& at(std::size_t i) {
      return slots[(head + i) & (slots.size() - 1)];
    }
    void push_back(Entry&& entry);
    [[nodiscard]] Entry pop_front() {
      Entry entry = std::move(slots[head]);
      head = (head + 1) & (slots.size() - 1);
      --count;
      return entry;
    }
    /// Removes the i-th oldest entry, shifting younger ones down
    /// (the FR-FCFS mid-queue bypass; rare relative to push/pop).
    [[nodiscard]] Entry take(std::size_t i);
  };

  struct Bank {
    Ring queue;
    bool busy = false;
    std::int64_t open_row = -1;  ///< -1 = closed (no row activated yet)
    Entry current{};
    double current_start = 0.0;
    double current_finish = 0.0;
    /// Times the oldest queued entry has been bypassed by a row hit.
    std::size_t bypass_count = 0;
  };

  void start_service(std::size_t b, Entry&& entry, double at);
  /// Applies the scheduling policy to a freed bank's queue.
  Entry pop_next(Bank& bank);
  /// Argmin over key_ — a branchless unsigned scan (ties resolve to the
  /// lowest bank index), cached between events: submissions update the
  /// cache incrementally, retirements invalidate it, so the scan runs
  /// about once per completion.
  [[nodiscard]] std::size_t earliest_busy_bank() const {
    if (earliest_valid_) return earliest_;
    // Two independent min-chains halve the cmov dependency depth; the
    // final merge prefers the even lane on a tie, which is the lower
    // bank index.
    const std::size_t n = key_.size();
    std::size_t best0 = 0, best1 = n > 1 ? 1 : 0;
    std::uint64_t key0 = key_[best0], key1 = key_[best1];
    for (std::size_t b = 2; b + 1 < n; b += 2) {
      const std::uint64_t a = key_[b], c = key_[b + 1];
      const bool la = a < key0, lc = c < key1;
      best0 = la ? b : best0;
      key0 = la ? a : key0;
      best1 = lc ? b + 1 : best1;
      key1 = lc ? c : key1;
    }
    if (n > 2 && (n & 1)) {
      const std::uint64_t a = key_[n - 1];
      const bool la = a < key0;
      best0 = la ? n - 1 : best0;
      key0 = la ? a : key0;
    }
    // Even-lane indices are all even, odd-lane all odd, EXCEPT when a
    // trailing odd element joined lane 0 — then a key tie must still
    // resolve to the smaller index.
    std::size_t best;
    if (key0 < key1) best = best0;
    else if (key1 < key0) best = best1;
    else best = best0 < best1 ? best0 : best1;
    earliest_ = best;
    earliest_valid_ = true;
    return best;
  }
  void record(const Entry& entry, double start, double finish);

  ChannelConfig config_;
  std::vector<Bank> banks_;
  /// Hot-path mirror of each bank's current_finish as raw IEEE-754 bits
  /// (+inf when idle).  Non-negative doubles order identically to their
  /// bit patterns as unsigned integers, so the completion scan is a
  /// pure integer argmin over a compact array — branchless, and never
  /// touching the fat Bank structs.
  std::vector<std::uint64_t> key_;
  mutable std::size_t earliest_ = 0;
  mutable bool earliest_valid_ = false;
  ChannelStats stats_;
  std::size_t in_flight_ = 0;
};

// ---- inline hot path ------------------------------------------------
// One submit and ~one step per simulated request; everything below is
// defined here so the driving loop's translation unit can inline it.

inline void ChannelSim::start_service(std::size_t b, Entry&& entry,
                                      double at) {
  Bank& bank = banks_[b];
  const MemRequest& r = entry.request;
  const bool is_read = r.op == Op::kRead;
  const bool row_open = bank.open_row >= 0;
  const bool row_hit =
      row_open && bank.open_row == static_cast<std::int64_t>(r.row);
  // Branchless hit/miss/conflict accounting: the outcome mix is
  // data-dependent (~40 % mispredict under moderate locality), so
  // arithmetic selects beat a three-way branch here.
  stats_.row_hits += row_hit ? 1 : 0;
  stats_.row_conflicts += (!row_hit && row_open) ? 1 : 0;
  stats_.row_misses += (!row_hit && !row_open) ? 1 : 0;
  const double row_energy =
      row_hit ? 0.0
              : config_.timing.e_act.value() +
                    (row_open ? config_.timing.e_pre.value() : 0.0);
  double service =
      config_.timing.occupancy(is_read, row_hit, row_open).value();
  stats_.energy_j += row_energy + (is_read ? config_.timing.e_read.value()
                                           : config_.timing.e_write.value());
  if (config_.faults != nullptr && is_read) {
    // One outcome per host read; the result depends only on the request
    // id, so schedules reproduce regardless of bank interleaving.
    const ReadFaultOutcome outcome =
        config_.faults->hinted_outcome(r.id, r.fault_hint);
    service += outcome.extra_latency.value();
    stats_.faults.add(outcome);
    stats_.energy_j += outcome.extra_energy.value();
  }
  bank.open_row = static_cast<std::int64_t>(r.row);
  bank.busy = true;
  bank.current = std::move(entry);
  bank.current_start = std::max(at, r.arrival);
  bank.current_finish = bank.current_start + service;
  const std::uint64_t key = std::bit_cast<std::uint64_t>(bank.current_finish);
  key_[b] = key;
  // The cached argmin stays valid: adding one in-flight access can only
  // displace it if the new completion is strictly earlier (ties resolve
  // to the lowest bank index).  An invalid cache stays invalid; the
  // next scan sees this bank through key_.
  if (in_flight_ == 0) {
    earliest_ = b;
    earliest_valid_ = true;
  } else if (earliest_valid_) {
    const std::uint64_t best = key_[earliest_];
    if (key < best || (key == best && b < earliest_)) earliest_ = b;
  }
  stats_.busy_time += service;
  ++in_flight_;
}

inline void ChannelSim::submit(const MemRequest& request) {
  require(request.bank < banks_.size(),
          "ChannelSim::submit: bank index out of range");
  Bank& bank = banks_[request.bank];
  if (!bank.busy) {
    start_service(request.bank, Entry{request, {}}, request.arrival);
    return;
  }
  if (config_.coalescing && request.op == Op::kRead) {
    // MSHR-style merge: a queued (not yet started) read to the same row
    // serves this one with its data access.
    for (std::size_t i = 0; i < bank.queue.size(); ++i) {
      Entry& pending = bank.queue.at(i);
      if (pending.request.op == Op::kRead &&
          pending.request.row == request.row) {
        pending.coalesced.push_back(request.arrival);
        ++stats_.coalesced_reads;
        return;
      }
    }
  }
  bank.queue.push_back(Entry{request, {}});
  stats_.peak_queue_depth =
      std::max(stats_.peak_queue_depth, bank.queue.size());
}

inline ChannelSim::Entry ChannelSim::pop_next(Bank& bank) {
  if (config_.scheduler == SchedulerPolicy::kFrFcfs &&
      bank.queue.size() > 1 && bank.open_row >= 0) {
    std::size_t hit = bank.queue.size();
    for (std::size_t i = 0; i < bank.queue.size(); ++i) {
      if (static_cast<std::int64_t>(bank.queue.at(i).request.row) ==
          bank.open_row) {
        hit = i;
        break;
      }
    }
    if (hit != bank.queue.size() && hit > 0) {
      if (bank.bypass_count < config_.starvation_cap) {
        // Row-hit-first: serve the oldest hit, aging the queue head.
        ++bank.bypass_count;
        return bank.queue.take(hit);
      }
      // Aging cap reached: force the oldest entry even though a deeper
      // row hit exists.  This bounds any entry's wait to
      // starvation_cap bypasses.
      ++stats_.starvation_promotions;
    }
  }
  bank.bypass_count = 0;
  return bank.queue.pop_front();
}

inline void ChannelSim::record(const Entry& entry, double start,
                               double finish) {
  const bool is_read = entry.request.op == Op::kRead;
  const auto record_one = [&](double arrival) {
    const double latency = finish - arrival;
    stats_.latency_sum += latency;
    stats_.queue_wait_sum += start - arrival;
    stats_.max_latency = std::max(stats_.max_latency, latency);
    stats_.latency_hist.record(latency);
    stats_.reads += is_read ? 1 : 0;
    stats_.writes += is_read ? 0 : 1;
  };
  record_one(entry.request.arrival);
  for (const double arrival : entry.coalesced) record_one(arrival);
  stats_.makespan = std::max(stats_.makespan, finish);
}

inline std::size_t ChannelSim::step() {
  const std::size_t b = earliest_busy_bank();
  Bank& bank = banks_[b];
  const double finish = bank.current_finish;
  // Record the retiring access in place — stats and service state are
  // independent, and this avoids moving the Entry out of the bank just
  // to read it.  A back-to-back start below overwrites bank.current;
  // otherwise the stale entry is harmless (the next start overwrites
  // it too).
  record(bank.current, bank.current_start, finish);
  const std::size_t retired = 1 + bank.current.coalesced.size();
  bank.busy = false;
  key_[b] = std::bit_cast<std::uint64_t>(
      std::numeric_limits<double>::infinity());
  // Retiring the cached minimum invalidates it; a back-to-back start on
  // this bank may revalidate through start_service.
  earliest_valid_ = false;
  --in_flight_;
  if (!bank.queue.empty()) {
    // Every queued access arrived while the bank was busy, so service
    // starts back-to-back at the completion instant.
    start_service(b, pop_next(bank), finish);
  }
  return retired;
}

}  // namespace sttram::engine::controller
