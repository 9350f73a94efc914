// Fault hook of the traffic engine.
//
// The engine itself knows nothing about fault physics: a read request
// may optionally be routed through a ReadFaultModel, which answers with
// the per-access outcome (retries taken, ECC action, extra bank
// occupancy and energy).  The concrete model lives in the fault layer
// above (src/sttram/fault/traffic_faults) — this header is the seam
// that keeps the dependency pointing upward (engine never links fault).
//
// Contract: a read's outcome is a pure function of its request id and
// the model's configuration.  Implementations fork per-request RNG
// streams from the id and keep no mutable state (every call is const:
// the controller shares one hook across its channel threads), so runs
// stay bit-identical across scheduling policies, workload generators
// and thread counts.  A null hook is the exact fault-free path.
//
// The engines' generation passes (the controller's 64-request blocks,
// run_traffic's open-loop stream) hand their reads' ids to
// first_attempt_hints in batches; each read carries its one-byte hint in
// its request's padding, and at service time the engine calls
// hinted_outcome(id, hint) once per (host) read, which must equal
// read_outcome(id).  Only those passes write hints, and run_traffic
// rewrites a trace's: a wrong hint would change an outcome silently
// (DESIGN.md §10.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "sttram/common/units.hpp"
#include "sttram/engine/request.hpp"

namespace sttram::engine {

/// What one (possibly retried) read access amounted to.
struct ReadFaultOutcome {
  std::uint32_t attempts = 1;        ///< reads issued (1 = no retry)
  std::uint32_t raw_bit_errors = 0;  ///< bit flips drawn across attempts
  bool corrected = false;            ///< ECC fixed a single-bit error
  bool uncorrectable = false;        ///< detected but not correctable
  bool silent = false;               ///< undetected corruption (no ECC)
  Second extra_latency{0.0};         ///< added bank occupancy
  Joule extra_energy{0.0};           ///< added access energy
};

/// The hint of a read no batch pass has seen: the hook derives the
/// outcome from the id alone.  Every other value is the hook's own.
inline constexpr std::uint8_t kNoFaultHint = 0;

/// Interface the engine drives; implemented by fault/traffic_faults.
class ReadFaultModel {
 public:
  virtual ~ReadFaultModel() = default;

  /// Outcome of the read with this id.  Must be a pure function of the
  /// id and the model's configuration (see the header comment).
  [[nodiscard]] virtual ReadFaultOutcome read_outcome(
      std::uint64_t request_id) const = 0;

  /// The batch pass: hints[i] for the read ids[i], i < n.
  virtual void first_attempt_hints(const std::uint64_t* ids, std::size_t n,
                                   std::uint8_t* hints) const = 0;

  /// read_outcome(request_id), finished from the hint the batch pass
  /// gave this id (or kNoFaultHint).
  [[nodiscard]] virtual ReadFaultOutcome hinted_outcome(
      std::uint64_t request_id, std::uint8_t hint) const = 0;
};

/// Batch size of hint_reads: large enough to fill every lane strip of
/// the hook's counting kernel, small enough to stay in L1.
inline constexpr std::size_t kFaultHintBatch = 64;

/// Leaves each read among requests[0, n) the hint `hook` gives its id,
/// kFaultHintBatch requests at a time.  `Req` is Request or the
/// controller's MemRequest.  Writes keep their byte: the hook never
/// sees a write.
template <class Req>
void hint_reads(const ReadFaultModel& hook, Req* requests, std::size_t n) {
  std::uint64_t ids[kFaultHintBatch];
  std::uint8_t at[kFaultHintBatch];
  std::uint8_t hints[kFaultHintBatch];
  for (std::size_t base = 0; base < n; base += kFaultHintBatch) {
    const std::size_t end = std::min(n, base + kFaultHintBatch);
    std::size_t reads = 0;
    for (std::size_t i = base; i < end; ++i) {
      ids[reads] = requests[i].id;
      at[reads] = static_cast<std::uint8_t>(i - base);
      reads += requests[i].op == Op::kRead ? 1 : 0;
    }
    hook.first_attempt_hints(ids, reads, hints);
    for (std::size_t j = 0; j < reads; ++j) {
      requests[base + at[j]].fault_hint = hints[j];
    }
  }
}

/// Aggregate fault/recovery activity of one traffic run.
struct TrafficFaultStats {
  std::uint64_t faulty_reads = 0;     ///< reads with >= 1 raw bit error
  std::uint64_t retries = 0;          ///< extra read attempts issued
  std::uint64_t raw_bit_errors = 0;   ///< bit flips before any recovery
  std::uint64_t corrected_words = 0;  ///< reads fixed by ECC
  std::uint64_t uncorrectable_words = 0;  ///< retries exhausted, detected
  std::uint64_t silent_corruptions = 0;   ///< undetected wrong data
  Second extra_latency{0.0};  ///< total retry + ECC bank occupancy
  Joule extra_energy{0.0};    ///< total retry + ECC energy
};

}  // namespace sttram::engine
