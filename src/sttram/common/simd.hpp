// Fixed-width SIMD lanes with runtime ISA dispatch.
//
// Every batched MC kernel in this repo is *lane-parallel*: one lane = one
// trial, and every lane executes the same operation sequence the scalar
// path would run for that trial.  That makes SIMD safe under the repo's
// bit-identity contract as long as each vector op is IEEE-754 correctly
// rounded (+, -, *, /, sqrt, compare/select/abs are; transcendentals are
// not, so exp/log stay scalar libm calls per lane — see DESIGN.md §15).
//
// `Vec<W>` wraps GCC vector extensions (explicit specializations because
// vector_size cannot depend on a template parameter); `Vec<1>` is a plain
// double.  `U64<W>` holds W unsigned 64-bit integer lanes (a plain
// std::uint64_t at W = 1): integer shifts, xors, adds and multiplies wrap
// modulo 2^64 the same way in every lane, so integer lane code (the RNG
// streams of stats/batch_simd.hpp) gives the same bits at every width.
// Compares yield 0 / -1 lane masks; mask_any() tests them (one
// instruction where the ISA has one), and `select` (or `m ? a : b` on
// integer lanes) blends by them, which is how a rejection loop keeps each
// lane's accepted draws apart from the others'.  Each kernel is written once as
// `template <int W>`.  Its W = 1
// instantiation is the `scalar` target and also runs the remainder lanes
// of every wider width; W = 2/4/8 are instantiated in per-width
// translation units compiled with the matching -m flags (w2 = baseline
// SSE2/NEON, w4 = -mavx2, w8 = -mavx512f -mavx512dq).  The whole build
// runs with -ffp-contract=off so no mul+add is fused into an FMA
// (contraction changes rounding).  pick_simd_table() picks the table for
// `active_simd_isa()` at kernel-build time.
//
// Every helper here is [[gnu::always_inline]], and the kernel bodies
// call no std function: an object built with wider -m flags must define
// no function another object defines, or the linker could hand its copy of
// a shared inline helper (AVX code) to every caller.  Only always_inline
// guarantees that at -O0; the `simd_symbols` ctest checks it
// (DESIGN.md §15.3).
//
// ISA selection order: programmatic override (`--simd`, tests) >
// STTRAM_SIMD environment variable > cpuid autodetection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace sttram {

/// Instruction sets the dispatcher understands, narrowest first.  sse2 is
/// the x86-64 baseline (2 lanes), neon the aarch64 baseline (2 lanes);
/// avx2 runs 4 lanes and avx512 (F+DQ) 8.
enum class SimdIsa : int {
  kScalar = 0,
  kSse2 = 1,
  kNeon = 2,
  kAvx2 = 3,
  kAvx512 = 4,
};

/// Lowercase token for `isa` ("scalar", "sse2", ...).
const char* simd_isa_name(SimdIsa isa);

/// Number of double lanes the ISA's kernels run (scalar = 1).
int simd_isa_lanes(SimdIsa isa);

/// True when this host *and* this build can execute `isa` kernels.
bool simd_isa_supported(SimdIsa isa);

/// Widest supported ISA on this host (cpuid on x86, compile-time on arm).
SimdIsa detect_simd_isa();

/// Parses "auto|scalar|sse2|avx2|avx512|neon".  Returns false on any
/// other token; "auto" sets *is_auto and leaves *out untouched.
bool parse_simd_isa(std::string_view text, SimdIsa* out, bool* is_auto);

/// The ISA every batched kernel dispatches to.  Resolution order:
/// set_simd_isa_override() > STTRAM_SIMD env var > detect_simd_isa().
/// Throws InvalidArgument on an unrecognized or unsupported STTRAM_SIMD
/// value (the CLI pre-validates so usage errors exit 2, not 1).
SimdIsa active_simd_isa();

/// Forces every subsequent kernel build to `isa`.  Throws InvalidArgument
/// if the host/build cannot execute it.  Tests and `--simd` use this.
void set_simd_isa_override(SimdIsa isa);

/// Returns to env/autodetect resolution.
void clear_simd_isa_override();

/// The one ISA ladder every batched kernel layer resolves through: the
/// widest compiled-in table `isa` can run (AVX-512 -> AVX2 -> SSE2/NEON),
/// else `w1`, the W = 1 table.  A wider table is nullptr when that width
/// is not compiled for this target.
template <class Table>
const Table& pick_simd_table(SimdIsa isa, const Table* w1, const Table* w2,
                             const Table* w4, const Table* w8) {
  const int lanes = simd_isa_lanes(isa);
  if (lanes >= 8 && w8 != nullptr) return *w8;
  if (lanes >= 4 && w4 != nullptr) return *w4;
  if (lanes >= 2 && w2 != nullptr) return *w2;
  return *w1;
}

namespace simd {

/// Maps a lane count to the GCC vector types of that width.  Explicit
/// specializations: `vector_size` must be a literal, not W-dependent.
template <int W>
struct LaneTraits;

template <>
struct LaneTraits<2> {
  typedef double vd __attribute__((vector_size(16)));
  typedef long long vm __attribute__((vector_size(16)));
  typedef unsigned long long vu __attribute__((vector_size(16)));
};
template <>
struct LaneTraits<4> {
  typedef double vd __attribute__((vector_size(32)));
  typedef long long vm __attribute__((vector_size(32)));
  typedef unsigned long long vu __attribute__((vector_size(32)));
};
template <>
struct LaneTraits<8> {
  typedef double vd __attribute__((vector_size(64)));
  typedef long long vm __attribute__((vector_size(64)));
  typedef unsigned long long vu __attribute__((vector_size(64)));
};
template <>
struct LaneTraits<1> {
  typedef double vd;
  typedef long long vm;
  typedef std::uint64_t vu;
};

/// W unsigned 64-bit integer lanes (std::uint64_t at W = 1).  GCC's
/// vector extensions broadcast a scalar operand, so one expression such
/// as `(z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL` serves every width.
template <int W>
using U64 = typename LaneTraits<W>::vu;

/// W double lanes.  Arithmetic is element-wise IEEE-754; min/max/abs are
/// expressed as compare+select so every lane reproduces the scalar
/// `std::min`/`std::max`/bit-and-abs result (ties and signed zeros
/// included).  Loads and stores go through memcpy, so unaligned pointers
/// are always safe (alignment still matters for cache behavior — keep
/// hot blocks on 64-byte boundaries).
template <int W>
struct Vec {
  using D = typename LaneTraits<W>::vd;
  using M = typename LaneTraits<W>::vm;  ///< compare result: -1 / 0 lanes

  D v;

  [[gnu::always_inline]] static Vec load(const double* p) {
    Vec r;
    __builtin_memcpy(&r.v, p, sizeof(D));
    return r;
  }
  [[gnu::always_inline]] void store(double* p) const {
    __builtin_memcpy(p, &v, sizeof(D));
  }
  [[gnu::always_inline]] static Vec splat(double x) {
    Vec r;
    r.v = D{} + x;
    return r;
  }
  [[gnu::always_inline]] double operator[](int i) const { return v[i]; }

  [[gnu::always_inline]] friend Vec operator+(Vec a, Vec b) {
    return Vec{a.v + b.v};
  }
  [[gnu::always_inline]] friend Vec operator-(Vec a, Vec b) {
    return Vec{a.v - b.v};
  }
  [[gnu::always_inline]] friend Vec operator*(Vec a, Vec b) {
    return Vec{a.v * b.v};
  }
  [[gnu::always_inline]] friend Vec operator/(Vec a, Vec b) {
    return Vec{a.v / b.v};
  }
  [[gnu::always_inline]] friend Vec operator-(Vec a) { return Vec{-a.v}; }
  /// `splat(s) * a`: a constant factor, as the closed forms write it.
  [[gnu::always_inline]] friend Vec operator*(double s, Vec a) {
    return splat(s) * a;
  }

  [[gnu::always_inline]] friend M operator<(Vec a, Vec b) { return a.v < b.v; }
  [[gnu::always_inline]] friend M operator<=(Vec a, Vec b) {
    return a.v <= b.v;
  }
  [[gnu::always_inline]] friend M operator==(Vec a, Vec b) {
    return a.v == b.v;
  }

  /// Per-lane `m ? a : b`.
  [[gnu::always_inline]] static Vec select(M m, Vec a, Vec b) {
    return Vec{m ? a.v : b.v};
  }

  /// `std::max` per lane: (a < b) ? b : a.
  [[gnu::always_inline]] friend Vec vmax(Vec a, Vec b) {
    return Vec{(a.v < b.v) ? b.v : a.v};
  }
  /// `std::min` per lane: (b < a) ? b : a.
  [[gnu::always_inline]] friend Vec vmin(Vec a, Vec b) {
    return Vec{(b.v < a.v) ? b.v : a.v};
  }
  /// `std::sqrt` per lane.  sqrt is IEEE-754 correctly rounded, so the
  /// per-element loop and the packed instruction GCC turns it into under
  /// -fno-math-errno produce the same bits as scalar std::sqrt.
  [[gnu::always_inline]] friend Vec vsqrt(Vec a) {
    Vec r;
    for (int i = 0; i < W; ++i) r.v[i] = __builtin_sqrt(a.v[i]);
    return r;
  }
  /// `std::fabs` per lane (clears the sign bit, so -0.0 -> +0.0).
  [[gnu::always_inline]] friend Vec vabs(Vec a) {
    M bits;
    __builtin_memcpy(&bits, &a.v, sizeof(D));
    bits &= 0x7fffffffffffffffLL;
    Vec r;
    __builtin_memcpy(&r.v, &bits, sizeof(D));
    return r;
  }
};

/// One lane as a plain double, so the W = 1 instantiations compile to
/// ordinary scalar code.  A one-element vector type would load and store
/// through memcpy, which may alias anything and makes the kernel loops
/// reload their operands after every store.  Masks are 0 / -1 like the
/// vector compares, so `~m` and `a & b` work unchanged.
template <>
struct Vec<1> {
  using D = double;
  using M = long long;

  double v;

  [[gnu::always_inline]] static Vec load(const double* p) { return Vec{*p}; }
  [[gnu::always_inline]] void store(double* p) const { *p = v; }
  [[gnu::always_inline]] static Vec splat(double x) { return Vec{x}; }
  [[gnu::always_inline]] double operator[](int) const { return v; }

  [[gnu::always_inline]] friend Vec operator+(Vec a, Vec b) {
    return Vec{a.v + b.v};
  }
  [[gnu::always_inline]] friend Vec operator-(Vec a, Vec b) {
    return Vec{a.v - b.v};
  }
  [[gnu::always_inline]] friend Vec operator*(Vec a, Vec b) {
    return Vec{a.v * b.v};
  }
  [[gnu::always_inline]] friend Vec operator/(Vec a, Vec b) {
    return Vec{a.v / b.v};
  }
  [[gnu::always_inline]] friend Vec operator-(Vec a) { return Vec{-a.v}; }
  [[gnu::always_inline]] friend Vec operator*(double s, Vec a) {
    return Vec{s * a.v};
  }

  [[gnu::always_inline]] friend M operator<(Vec a, Vec b) {
    return a.v < b.v ? -1 : 0;
  }
  [[gnu::always_inline]] friend M operator<=(Vec a, Vec b) {
    return a.v <= b.v ? -1 : 0;
  }
  [[gnu::always_inline]] friend M operator==(Vec a, Vec b) {
    return a.v == b.v ? -1 : 0;
  }

  [[gnu::always_inline]] static Vec select(M m, Vec a, Vec b) {
    return Vec{m ? a.v : b.v};
  }
  [[gnu::always_inline]] friend Vec vmax(Vec a, Vec b) {
    return Vec{(a.v < b.v) ? b.v : a.v};
  }
  [[gnu::always_inline]] friend Vec vmin(Vec a, Vec b) {
    return Vec{(b.v < a.v) ? b.v : a.v};
  }
  [[gnu::always_inline]] friend Vec vsqrt(Vec a) {
    return Vec{__builtin_sqrt(a.v)};
  }
  [[gnu::always_inline]] friend Vec vabs(Vec a) {
    return Vec{__builtin_fabs(a.v)};
  }
};

/// True when any lane of a compare-result mask is set: one test
/// instruction where the TU's ISA has one (a rejection loop tests its
/// mask every pass), else an OR over the lanes.
template <int W>
[[gnu::always_inline]] inline bool mask_any(typename Vec<W>::M m) {
  if constexpr (W == 1) {
    return m != 0;
  } else {
#if defined(__AVX512F__)
    if constexpr (W == 8) {
      return _mm512_test_epi64_mask(reinterpret_cast<__m512i>(m),
                                    reinterpret_cast<__m512i>(m)) != 0;
    }
#endif
#if defined(__AVX__)
    if constexpr (W == 4) {
      return _mm256_testz_si256(reinterpret_cast<__m256i>(m),
                                reinterpret_cast<__m256i>(m)) == 0;
    }
#endif
#if defined(__SSE2__)
    if constexpr (W == 2) {
      return _mm_movemask_pd(reinterpret_cast<__m128d>(m)) != 0;
    }
#endif
    bool any = false;
    for (int i = 0; i < W; ++i) any |= (m[i] != 0);
    return any;
  }
}

/// Lanes first, first + 1, ..., first + W - 1.
template <int W>
[[gnu::always_inline]] inline U64<W> iota_u64(std::uint64_t first) {
  if constexpr (W == 1) {
    return first;
  } else {
    U64<W> r;
    for (int i = 0; i < W; ++i) r[i] = first + static_cast<std::uint64_t>(i);
    return r;
  }
}

/// `static_cast<double>(x)` per lane, correctly rounded.  x86 has no
/// packed 64-bit integer conversion below AVX-512DQ, so narrower lanes
/// split x = hi * 2^32 + lo and OR each half into the mantissa of a
/// power of two (2^84, 2^52): subtracting that power is exact, and the
/// one rounding left is the final add of hi * 2^32 and lo, the same
/// rounding the scalar conversion does.
template <int W>
[[gnu::always_inline]] inline Vec<W> u64_to_double(U64<W> x) {
  if constexpr (W == 1) {
    return Vec<1>{static_cast<double>(x)};
  } else {
    using D = typename Vec<W>::D;
#if defined(__AVX512DQ__)
    if constexpr (W == 8) return Vec<W>{__builtin_convertvector(x, D)};
#endif
    const U64<W> hi = (x >> 32) | 0x4530000000000000ULL;
    const U64<W> lo = (x & 0xffffffffULL) | 0x4330000000000000ULL;
    D dh, dl;
    __builtin_memcpy(&dh, &hi, sizeof(D));
    __builtin_memcpy(&dl, &lo, sizeof(D));
    return Vec<W>{(dh - 0x1.0p84) + (dl - 0x1.0p52)};
  }
}

/// Lane-count tag, so one generic kernel body can run at W and at 1.
template <int W>
struct Lanes {};

/// Strip-mines [0, n) for a kernel body `body(i, Lanes<L>{})` that
/// processes lanes [i, i + L): full W-lane strips first, then the
/// remainder one lane at a time through the same body at L = 1.
template <int W, class Body>
inline void for_each_strip(std::size_t n, Body&& body) {
  std::size_t i = 0;
  for (; i + W <= n; i += W) body(i, Lanes<W>{});
  if constexpr (W > 1) {
    for (; i < n; ++i) body(i, Lanes<1>{});
  }
}

}  // namespace simd

/// 64-byte-aligning allocator so SoA block rows start on cache-line
/// boundaries (std::vector's default allocator only guarantees 16).
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  AlignedAllocator() = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlign));
  }
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// std::vector whose buffer starts on a 64-byte boundary.
template <class T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace sttram
