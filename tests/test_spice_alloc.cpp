// Heap allocations of the MNA transient.  The Newton loop reuses one
// workspace per analysis and stores samples in one contiguous buffer, so
// doubling the simulated time (and with it the Newton iteration count)
// may add only the growth steps of the waveform's time and sample
// buffers.  This binary replaces the global operator new with a counting
// one that forwards to malloc, so it also runs under ASan and TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sttram/obs/metrics.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/spice/analysis.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sttram {
namespace {

struct TransientCost {
  std::size_t allocations = 0;
  std::uint64_t newton_iterations = 0;
};

/// Builds the Fig. 5 read circuit, then counts what one run_transient
/// to `t_stop` allocates and how many Newton iterations it takes.
TransientCost transient_cost(double t_stop) {
  const SpiceReadConfig cfg;
  spice::Circuit circuit;
  build_nondestructive_read_circuit(circuit, cfg);
  circuit.finalize();
  spice::TransientOptions opt;
  opt.t_stop = t_stop;
  opt.dt = cfg.dt;
  const obs::Counter& iterations =
      obs::Registry::instance().counter("spice.newton.iterations");
  const std::uint64_t iterations_before = iterations.value();
  const std::size_t allocations_before = g_allocations.load();
  const spice::TransientResult waves = spice::run_transient(circuit, opt);
  TransientCost cost;
  cost.allocations = g_allocations.load() - allocations_before;
  cost.newton_iterations = iterations.value() - iterations_before;
  EXPECT_GT(waves.sample_count(), 100u);
  return cost;
}

TEST(SpiceAllocations, TransientAllocationsDoNotGrowWithNewtonIterations) {
  const double t_stop = SpiceReadConfig{}.t_stop;
  obs::set_metrics_enabled(true);
  (void)transient_cost(t_stop);  // registers the solver counters
  const TransientCost once = transient_cost(t_stop);
  const TransientCost twice = transient_cost(2.0 * t_stop);
  obs::set_metrics_enabled(false);

  ASSERT_GT(twice.newton_iterations, once.newton_iterations + 500);
  // Twice the steps: each of the two waveform buffers doubles its
  // capacity about once more.
  EXPECT_LE(twice.allocations, once.allocations + 4)
      << once.allocations << " allocations over " << once.newton_iterations
      << " Newton iterations, " << twice.allocations << " over "
      << twice.newton_iterations;
  // Nothing is allocated per Newton iteration.
  EXPECT_LT(once.allocations, once.newton_iterations / 10);
}

}  // namespace
}  // namespace sttram
