#include "sttram/stats/monte_carlo.hpp"

#include <vector>

#include "sttram/obs/metrics.hpp"
#include "sttram/obs/profile.hpp"

namespace sttram {

RunningStats monte_carlo_stats(
    std::uint64_t seed, std::size_t trials,
    const std::function<double(Xoshiro256&)>& trial_fn,
    ParallelExecutor* executor) {
  STTRAM_OBS_SCOPE("mc.stats");
  SerialExecutor serial;
  ParallelExecutor& exec = executor != nullptr ? *executor : serial;
  const Xoshiro256 master(seed);
  // Sample into per-trial slots, then reduce serially in trial order:
  // Welford accumulation is order-sensitive, so this is what keeps the
  // result bit-identical for any thread count.
  std::vector<double> values(trials);
  exec.for_chunks(trials,
                  [&](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) {
                      Xoshiro256 stream = master.fork(i);
                      values[i] = trial_fn(stream);
                    }
                  });
  RunningStats stats;
  for (const double v : values) stats.add(v);
  STTRAM_OBS_ADD("mc.trials", trials);
  return stats;
}

}  // namespace sttram
