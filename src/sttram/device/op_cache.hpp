// Operating-point cache for the Monte-Carlo hot paths.
//
// The designed read operating point of a sensing scheme — the
// equal-margin current ratio beta or the shared reference voltage — is
// a pure function of (scheme, corner parameters, read current).  The
// yield and tail drivers used to re-derive it per experiment (and, in
// the tail sampler, per *trial*) even though variation only perturbs
// the sampled device, never the designed point.  This cache memoizes
// those solves.
//
// Determinism contract (DESIGN.md §14): cached values are pure functions
// of their key, and a lookup either computes exactly the expression the
// uncached code evaluated or returns the double that computation
// produced earlier — so hits and misses can never change a result, and
// 1/2/8-thread runs stay bit-identical.  Shards are thread-local
// (`local_shard()`): no locks, no cross-thread ordering.  Only the
// hit/miss *counters* depend on the shard layout (each shard pays its
// own cold misses); they are observability, not output.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sttram/obs/metrics.hpp"

namespace sttram {

/// A solved per-scheme read operating point.  Which fields are
/// meaningful depends on the scheme that keyed the entry (a designed
/// beta for the self-reference schemes, a reference voltage for
/// conventional sensing, ...); unused fields stay zero.
struct OperatingPoint {
  double beta = 0.0;   ///< designed equal-margin current ratio I2/I1
  double v_ref = 0.0;  ///< shared/midpoint reference voltage [V]
};

/// Scheme tag that seeds an operating-point key.  Values are part of the
/// key space; never reuse or renumber.
enum class OpKind : std::uint32_t {
  kDestructiveBeta = 1,     ///< DestructiveSelfReference::paper_beta()
  kNondestructiveBeta = 2,  ///< NondestructiveSelfReference::paper_beta()
  kSharedVRef = 3,          ///< ConventionalSensing::midpoint_reference()
};

/// Starts a key from the scheme tag.
[[nodiscard]] inline std::uint64_t op_key(OpKind kind) {
  return 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(kind) + 1);
}

/// Folds one corner parameter (bitwise, so -0.0 != +0.0 and every ULP
/// counts — exactly the granularity at which results could differ).
[[nodiscard]] inline std::uint64_t op_key_mix(std::uint64_t h, double v) {
  std::uint64_t z = h ^ (std::bit_cast<std::uint64_t>(v) +
                         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Lifetime hit/miss counts of one cache shard.
struct OpCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Small open-addressed memo table: 64 slots, linear probing over a
/// bounded window, home-slot eviction when the window is full.  Eviction
/// only costs a recompute — values are pure functions of the key, so it
/// can never change a result.
class OpCache {
 public:
  static constexpr std::size_t kSlots = 64;
  static constexpr std::size_t kProbeLimit = 8;

  /// Returns the cached operating point for `key`, calling `solve()` to
  /// fill it on a miss.  `solve` must be a pure function of the values
  /// folded into `key`.
  template <typename Solve>
  const OperatingPoint& get_or_compute(std::uint64_t key, Solve&& solve) {
    const std::size_t home = static_cast<std::size_t>(key) & (kSlots - 1);
    for (std::size_t probe = 0; probe < kProbeLimit; ++probe) {
      Slot& slot = slots_[(home + probe) & (kSlots - 1)];
      if (slot.used && slot.key == key) {
        ++stats_.hits;
        STTRAM_OBS_COUNT("mc.opcache.hits");
        return slot.value;
      }
      if (!slot.used) return fill(slot, key, solve);
    }
    // Probe window exhausted: evict the home slot.
    return fill(slots_[home], key, solve);
  }

  [[nodiscard]] const OpCacheStats& stats() const { return stats_; }

  /// Empties the shard (tests use this to force a cold cache).
  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    stats_ = OpCacheStats{};
  }

  /// The calling thread's shard.  Thread-local by design: see the
  /// determinism contract at the top of this header.
  static OpCache& local_shard() {
    thread_local OpCache cache;
    return cache;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    bool used = false;
    OperatingPoint value;
  };

  /// A miss: solves before claiming the slot, so a solve that throws
  /// leaves no entry behind for the next lookup of `key` to return.
  template <typename Solve>
  const OperatingPoint& fill(Slot& slot, std::uint64_t key, Solve& solve) {
    ++stats_.misses;
    STTRAM_OBS_COUNT("mc.opcache.misses");
    slot.value = solve();
    slot.used = true;
    slot.key = key;
    return slot.value;
  }
  std::array<Slot, kSlots> slots_{};
  OpCacheStats stats_;
};

}  // namespace sttram
