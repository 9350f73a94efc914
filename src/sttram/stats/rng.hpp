// Deterministic random streams for Monte-Carlo experiments.
//
// Every stochastic experiment in this library takes an explicit 64-bit
// seed and derives independent sub-streams from it, so results reproduce
// bit-for-bit across runs and machines.
//
// The generator steps are written once over an integer type `U`: either
// std::uint64_t (the classes below) or a vector of W uint64 lanes
// (simd::U64<W>, the lane streams of stats/batch_simd.hpp).  They use
// only shifts, xors, adds and multiplies modulo 2^64, so a lane computes
// exactly the bits the scalar class does.
#pragma once

#include <cstdint>

namespace sttram {

namespace rng_detail {

inline constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// splitmix64's output mix of one state value.
template <class U>
constexpr U splitmix64_mix(U z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

template <class U>
constexpr U rotl(U x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// xoshiro256**'s state for `seed`: four splitmix64 outputs from it.
template <class U>
constexpr void xoshiro256_seed(U seed, U* s) {
  for (int i = 0; i < 4; ++i) s[i] = splitmix64_mix(seed += kGolden);
}

/// One xoshiro256** step on state `s`; returns the output word.
template <class U>
constexpr U xoshiro256_next(U* s) {
  const U result = rotl(s[1] * 5, 7) * 9;
  const U t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

}  // namespace rng_detail

/// Counter-based 64-bit mixer (splitmix64).  Used both as a fast PRNG and
/// to derive decorrelated child seeds from a master seed.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  /// Next 64 uniformly distributed bits.
  constexpr std::uint64_t next_u64() {
    return rng_detail::splitmix64_mix(state_ += rng_detail::kGolden);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse generator.  Small, fast, and passes BigCrush;
/// seeded through SplitMix64 so a zero seed is safe.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    rng_detail::xoshiro256_seed(seed, s_);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() { return rng_detail::xoshiro256_next(s_); }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Derives a decorrelated child generator; `stream` distinguishes
  /// siblings derived from the same parent.
  [[nodiscard]] Xoshiro256 fork(std::uint64_t stream) const {
    return Xoshiro256(fork_seed(stream));
  }

  /// The seed fork(stream) builds its child from.  `U` may hold one
  /// stream index per lane, so W children are seeded at once.
  template <class U>
  [[nodiscard]] U fork_seed(U stream) const {
    return rng_detail::splitmix64_mix(
        (s_[0] ^ (s_[3] + rng_detail::kGolden * (stream + 1))) +
        rng_detail::kGolden);
  }

 private:
  std::uint64_t s_[4] = {};
};

}  // namespace sttram
