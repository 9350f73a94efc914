#include "sttram/stats/monte_carlo.hpp"

namespace sttram {

RunningStats monte_carlo_stats(
    std::uint64_t seed, std::size_t trials,
    const std::function<double(Xoshiro256&)>& trial_fn,
    const MonteCarloOptions& options) {
  obs::TraceSpan span("monte_carlo_stats", "mc");
  RunningStats stats;
  const Xoshiro256 master(seed);
  const bool metered = obs::metrics_enabled();
  obs::HistogramMetric* latency =
      metered ? &obs::Registry::instance().histogram("mc.trial_seconds")
              : nullptr;
  const std::size_t stride = detail::progress_stride(options, trials);
  const auto t_begin = std::chrono::steady_clock::now();
  if (detail::parallel_requested(options)) {
    // Sample in parallel, then reduce serially in trial order — Welford
    // accumulation is order-sensitive, so this is what keeps the result
    // bit-identical to the serial run.
    std::vector<double> values(trials, 0.0);
    options.executor->for_chunks(
        trials, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            Xoshiro256 stream = master.fork(i);
            if (latency != nullptr) {
              const auto t0 = std::chrono::steady_clock::now();
              values[i] = trial_fn(stream);
              latency->record(std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
            } else {
              values[i] = trial_fn(stream);
            }
          }
        });
    for (const double v : values) stats.add(v);
    if (options.progress) options.progress(trials, trials);
  } else {
    for (std::size_t i = 0; i < trials; ++i) {
      Xoshiro256 stream = master.fork(i);
      if (latency != nullptr) {
        const auto t0 = std::chrono::steady_clock::now();
        stats.add(trial_fn(stream));
        latency->record(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      } else {
        stats.add(trial_fn(stream));
      }
      if (options.progress && ((i + 1) % stride == 0 || i + 1 == trials)) {
        options.progress(i + 1, trials);
      }
    }
  }
  if (metered) {
    detail::publish_mc_throughput(
        trials, std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t_begin)
                    .count());
  }
  return stats;
}

}  // namespace sttram
