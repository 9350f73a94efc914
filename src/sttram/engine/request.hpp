// Memory-access requests and the per-bank scheduling queue of the
// traffic engine.
#pragma once

#include <cstdint>
#include <deque>

#include "sttram/common/units.hpp"

namespace sttram::engine {

enum class Op : std::uint8_t { kRead, kWrite };

/// One bank access offered to the traffic engine.
struct Request {
  std::uint64_t id = 0;     ///< issue order (unique, monotonic)
  Second arrival{0.0};      ///< when the request enters the controller
  Op op = Op::kRead;
  /// Engine-internal, in what was padding: the fault hook's hint for a
  /// read (engine/fault_hook.hpp), written by run_traffic over every read
  /// it is given.  Direct BankController callers leave it 0 (no hint).
  std::uint8_t fault_hint = 0;
  std::uint32_t bank = 0;
};
static_assert(sizeof(Request) == 24, "the hint byte must stay in padding");

/// A serviced request with its measured schedule.
struct CompletedRequest {
  Request request;
  Second start{0.0};   ///< when the bank began servicing it
  Second finish{0.0};  ///< start + the scheme's service time

  [[nodiscard]] Second latency() const { return finish - request.arrival; }
  [[nodiscard]] Second queue_wait() const { return start - request.arrival; }
};

/// How a bank picks the next pending request when it frees up.
enum class SchedulingPolicy : std::uint8_t {
  kFcfs,          ///< strict arrival order
  /// Oldest pending read first; writes only drain when no read waits.
  /// Models a read-priority controller exploiting that STT-RAM writes
  /// are latency-insensitive (posted) while reads stall the consumer.
  kReadPriority,
};

/// Pending requests of one bank.  push() keeps arrival order; pop()
/// applies the scheduling policy.  Deterministic: ties are broken by
/// issue order, never by timing.
class RequestQueue {
 public:
  explicit RequestQueue(SchedulingPolicy policy) : policy_(policy) {}

  void push(const Request& request) { pending_.push_back(request); }

  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::size_t size() const { return pending_.size(); }

  /// Removes and returns the next request to service (queue not empty).
  Request pop() {
    if (policy_ == SchedulingPolicy::kReadPriority) {
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->op == Op::kRead) {
          const Request r = *it;
          pending_.erase(it);
          return r;
        }
      }
    }
    const Request r = pending_.front();
    pending_.pop_front();
    return r;
  }

 private:
  SchedulingPolicy policy_;
  std::deque<Request> pending_;
};

}  // namespace sttram::engine
