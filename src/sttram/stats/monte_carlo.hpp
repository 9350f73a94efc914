// Generic deterministic Monte-Carlo driver.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sttram/common/parallel.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/obs/trace.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

namespace sttram {

/// Optional reporting knobs for the Monte-Carlo drivers.  Progress
/// reporting is independent of the obs metrics switch and never alters
/// the sampled streams, so results are identical with or without it.
struct MonteCarloOptions {
  /// Called as progress(done, total) every `progress_interval` trials
  /// and once after the final trial; null disables reporting.  Under a
  /// parallel executor progress fires once, after the final trial.
  std::function<void(std::size_t done, std::size_t total)> progress;
  /// 0 = auto (about 1% of the run, at least every trial).
  std::size_t progress_interval = 0;
  /// Optional parallel executor (not owned).  Null or single-threaded
  /// runs serially.  Trial i sees the same RNG stream either way and
  /// reductions happen serially in trial order, so results are
  /// bit-identical for any thread count.
  ParallelExecutor* executor = nullptr;
};

namespace detail {

inline std::size_t progress_stride(const MonteCarloOptions& options,
                                   std::size_t trials) {
  if (options.progress_interval > 0) return options.progress_interval;
  return std::max<std::size_t>(trials / 100, 1);
}

/// Publishes end-of-run throughput metrics (no-op when metrics are off —
/// callers only invoke this on the instrumented path).
inline void publish_mc_throughput(std::size_t trials, double elapsed_s) {
  auto& registry = obs::Registry::instance();
  registry.counter("mc.trials").add(trials);
  if (elapsed_s > 0.0) {
    registry.gauge("mc.trials_per_second")
        .set(static_cast<double>(trials) / elapsed_s);
  }
}

/// True when `options` asks for a genuinely parallel run.
inline bool parallel_requested(const MonteCarloOptions& options) {
  return options.executor != nullptr && options.executor->thread_count() > 1;
}

}  // namespace detail

/// Runs `trials` independent trials of `trial_fn`, each with its own
/// decorrelated RNG stream derived from `seed`, and returns all results.
/// Trial i always sees the same stream regardless of how many trials are
/// requested, so extending a run keeps earlier samples identical.
/// With options.executor set, chunks of trials run concurrently and the
/// per-chunk results are concatenated in chunk order — the returned
/// vector is bit-identical to the serial run.
template <typename T>
std::vector<T> run_monte_carlo(std::uint64_t seed, std::size_t trials,
                               const std::function<T(Xoshiro256&)>& trial_fn,
                               const MonteCarloOptions& options = {}) {
  obs::TraceSpan span("run_monte_carlo", "mc");
  std::vector<T> out;
  out.reserve(trials);
  const Xoshiro256 master(seed);
  const bool metered = obs::metrics_enabled();
  // Per-trial solve times go to a histogram (lock-free record path, full
  // percentile set in the exports) — the scalar mean hid the tail.
  obs::HistogramMetric* latency =
      metered ? &obs::Registry::instance().histogram("mc.trial_seconds")
              : nullptr;
  const std::size_t stride = detail::progress_stride(options, trials);
  const auto t_begin = std::chrono::steady_clock::now();
  if (detail::parallel_requested(options)) {
    std::vector<std::vector<T>> parts(options.executor->thread_count());
    options.executor->for_chunks(
        trials, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          std::vector<T>& part = parts[chunk];
          part.reserve(end - begin);
          for (std::size_t i = begin; i < end; ++i) {
            Xoshiro256 stream = master.fork(i);
            if (latency != nullptr) {
              const auto t0 = std::chrono::steady_clock::now();
              part.push_back(trial_fn(stream));
              latency->record(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
            } else {
              part.push_back(trial_fn(stream));
            }
          }
        });
    for (auto& part : parts) {
      for (auto& value : part) out.push_back(std::move(value));
    }
    if (options.progress) options.progress(trials, trials);
    if (metered) {
      detail::publish_mc_throughput(
          trials, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t_begin)
                      .count());
    }
    return out;
  }
  for (std::size_t i = 0; i < trials; ++i) {
    Xoshiro256 stream = master.fork(i);
    if (latency != nullptr) {
      const auto t0 = std::chrono::steady_clock::now();
      out.push_back(trial_fn(stream));
      latency->record(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    } else {
      out.push_back(trial_fn(stream));
    }
    if (options.progress && ((i + 1) % stride == 0 || i + 1 == trials)) {
      options.progress(i + 1, trials);
    }
  }
  if (metered) {
    detail::publish_mc_throughput(
        trials, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_begin)
                    .count());
  }
  return out;
}

/// Blocked variant of run_monte_carlo for batched (SoA) trial kernels:
/// instead of one callback per trial, `block_fn(master, begin, end, out)`
/// fills results for the whole trial block [begin, end) at once —
/// sampling into an SoA block from the per-trial streams
/// `master.fork(k)` and solving all lanes together.  `out` points at the
/// result slot of trial `begin`; blocks never span chunk boundaries, so
/// with an executor set each chunk runs its own block sequence and the
/// preallocated result vector is written in place — bit-identical to the
/// serial run for any thread count, and (because every trial forks its
/// own stream) invariant under the block size.  `block_size` 0 means one
/// block per chunk ("whole-run" when serial).  When metered, each
/// block's wall time goes to the `mc.block_seconds` histogram and the
/// lane width to the `mc.batch_size` gauge.
template <typename T>
std::vector<T> run_monte_carlo_blocked(
    std::uint64_t seed, std::size_t trials,
    const std::function<void(const Xoshiro256& master, std::size_t begin,
                             std::size_t end, T* out)>& block_fn,
    const MonteCarloOptions& options, std::size_t block_size) {
  obs::TraceSpan span("run_monte_carlo_blocked", "mc");
  std::vector<T> out(trials);
  if (trials == 0) return out;
  const Xoshiro256 master(seed);
  const bool metered = obs::metrics_enabled();
  const std::size_t stride = block_size == 0 ? trials : block_size;
  STTRAM_OBS_SET_GAUGE("mc.batch_size", stride);
  obs::HistogramMetric* block_hist =
      metered ? &obs::Registry::instance().histogram("mc.block_seconds")
              : nullptr;
  const auto run_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t b = begin; b < end; b += stride) {
      const std::size_t stop = std::min(end, b + stride);
      if (block_hist != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        block_fn(master, b, stop, out.data() + b);
        block_hist->record(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
      } else {
        block_fn(master, b, stop, out.data() + b);
      }
    }
  };
  const auto t_begin = std::chrono::steady_clock::now();
  if (detail::parallel_requested(options)) {
    options.executor->for_chunks(
        trials, [&](std::size_t, std::size_t begin, std::size_t end) {
          run_range(begin, end);
        });
  } else {
    run_range(0, trials);
  }
  if (options.progress) options.progress(trials, trials);
  if (metered) {
    detail::publish_mc_throughput(
        trials, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_begin)
                    .count());
  }
  return out;
}

/// Convenience: runs scalar trials and reduces them into RunningStats.
RunningStats monte_carlo_stats(
    std::uint64_t seed, std::size_t trials,
    const std::function<double(Xoshiro256&)>& trial_fn,
    const MonteCarloOptions& options = {});

}  // namespace sttram
