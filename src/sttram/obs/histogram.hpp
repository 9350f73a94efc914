// Log-bucketed (HDR-style) histogram for latency / duration samples.
//
// Values are bucketed by octave (power of two) with kSubBuckets linearly
// spaced sub-buckets per octave, so the worst-case relative quantile
// error is bounded by 1/kSubBuckets (~1.6 %) across the whole dynamic
// range — from sub-picosecond to ~18 hours — with a fixed, allocation-
// free bucket array.  Two variants share the layout:
//
//  - Histogram: plain value-semantics accumulator.  This is the one the
//    engines use to *compute results* (percentile sets), so it is
//    deterministic and always on — it is a data structure, not
//    telemetry.
//  - HistogramMetric: the registry-resident variant with a lock-free
//    record path (relaxed atomic adds / CAS min-max), safe to hit from
//    any thread.  snapshot() copies it into a plain Histogram.
//
// Exact count/sum/min/max are tracked alongside the buckets, so mean and
// extreme order statistics carry no bucketing error; quantile() clamps
// its interpolated bucket midpoint into [min, max].
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace sttram {
class Json;
}

namespace sttram::obs {

/// Shared bucket layout of Histogram / HistogramMetric.
struct HistogramLayout {
  static constexpr int kSubBucketBits = 6;
  /// Linear sub-buckets per octave; relative resolution 1/64 ~ 1.6 %.
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  /// Smallest resolvable exponent: 2^-40 ~ 9.1e-13 (sub-picosecond).
  static constexpr int kMinExponent = -40;
  /// Largest: values >= 2^16 (~18.2 h in seconds) land in the top bucket.
  static constexpr int kMaxExponent = 16;
  static constexpr int kOctaves = kMaxExponent - kMinExponent;
  /// Bucket 0 holds zeros, negatives and sub-2^-40 underflow; the last
  /// bucket holds overflow.
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kOctaves) * kSubBuckets + 2;

  /// Maps a sample to its bucket.  NaN, zero and negative values map to
  /// bucket 0 so a corrupt sample can never crash the record path.
  /// Inline bit-twiddle: for a positive double the IEEE-754 exponent
  /// field is the octave and the top kSubBucketBits mantissa bits are
  /// the linear sub-bucket, so no frexp (libm) call is needed on the
  /// record hot path (~5 ns/sample in the traffic simulators).
  [[nodiscard]] static std::size_t bucket_index(double v) {
    if (!(v > 0.0)) return 0;  // zero, negative and NaN
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    // Sign bit is 0, so bits >> 52 is the biased exponent; subnormals
    // (biased 0) fall far below kMinExponent and land in bucket 0,
    // +inf (biased 0x7ff) lands in the overflow bucket.
    const int octave = static_cast<int>(bits >> 52) - 1023;
    if (octave < kMinExponent) return 0;
    if (octave >= kMaxExponent) return kBucketCount - 1;
    const std::size_t sub = static_cast<std::size_t>(
        (bits >> (52 - kSubBucketBits)) &
        static_cast<std::uint64_t>(kSubBuckets - 1));
    return 1 +
           static_cast<std::size_t>(octave - kMinExponent) * kSubBuckets +
           sub;
  }
  /// Inclusive lower edge of a bucket (0 for bucket 0).
  [[nodiscard]] static double bucket_lower(std::size_t index);
  /// Exclusive upper edge of a bucket.
  [[nodiscard]] static double bucket_upper(std::size_t index);
  /// Arithmetic midpoint — the representative value quantile() reports.
  [[nodiscard]] static double bucket_mid(std::size_t index);
};

/// Summary row of one histogram: the full percentile set the metrics
/// exports carry (schema: see DESIGN.md §11).
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  [[nodiscard]] Json to_json() const;
};

/// Plain (non-atomic) log-bucketed histogram.
class Histogram : public HistogramLayout {
 public:
  Histogram() : counts_(kBucketCount, 0) {}

  void record(double v) {
    ++counts_[bucket_index(v)];
    if (count_ == 0) {
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++count_;
    sum_ += v;
  }

  /// Adds every bucket of `other` into this one (exact merge: the two
  /// orderings produce identical buckets, counts and extremes).
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t bucket_count_at(std::size_t index) const {
    return counts_[index];
  }

  /// Quantile `q` in [0, 1]: the midpoint of the bucket holding the
  /// rank-q sample, clamped into [min(), max()] (so q=0 / q=1 are exact).
  /// Returns 0 for an empty histogram.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] HistogramSummary summary() const;

  void reset();

 private:
  friend class HistogramMetric;
  /// Raw-state setters for HistogramMetric::snapshot(), which rebuilds a
  /// plain histogram from relaxed atomic loads.
  void import_bucket(std::size_t index, std::uint64_t count) {
    counts_[index] = count;
  }
  void import_aggregates(std::uint64_t count, double sum, double min,
                         double max) {
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Registry-resident histogram with a lock-free record path: one relaxed
/// fetch_add on the bucket plus CAS loops for sum/min/max.  No locks, no
/// allocation after construction.
class HistogramMetric : public HistogramLayout {
 public:
  HistogramMetric();

  void record(double v);
  /// Folds a locally accumulated plain histogram in (bucket-wise atomic
  /// adds) — how single-threaded result code publishes to the registry.
  void merge(const Histogram& local);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Relaxed copy of the current state as a plain Histogram.
  [[nodiscard]] Histogram snapshot() const;

  void reset();

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

}  // namespace sttram::obs
