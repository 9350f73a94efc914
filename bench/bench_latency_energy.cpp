// Sec. V — Read latency / energy comparison of the three schemes and the
// non-volatility (power-failure) experiment.  The paper's claims: the
// nondestructive scheme eliminates the erase and write-back pulses,
// dramatically reducing read latency and power, and preserves
// non-volatility because the stored value is never overwritten.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/timing_energy.hpp"

using namespace sttram;

int main() {
  bench::heading("Sec. V", "read latency / energy / non-volatility");

  const CostComparisonConfig cfg;
  const auto costs = compare_scheme_costs(cfg);

  TextTable t({"scheme", "latency r0", "latency r1", "energy r0",
               "energy r1", "writes r0", "writes r1"});
  for (const auto& c : costs) {
    t.add_row({c.scheme, format(c.latency_read0), format(c.latency_read1),
               format(c.energy_read0), format(c.energy_read1),
               std::to_string(c.write_pulses_read0),
               std::to_string(c.write_pulses_read1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const SchemeCost& destructive = costs[1];
  const SchemeCost& nondes = costs[2];
  const double speedup =
      destructive.worst_latency() / nondes.worst_latency();
  const double energy_ratio =
      destructive.worst_energy() / nondes.worst_energy();
  std::printf("nondestructive vs destructive:  %.2fx faster, %.1fx less "
              "read energy\n\n",
              speedup, energy_ratio);

  std::printf("power-failure injection (supply drops after each phase):\n");
  TextTable pf({"scheme", "stored", "failed after phase", "data survived"});
  const auto outcomes = power_failure_experiment(cfg);
  for (const auto& o : outcomes) {
    pf.add_row({o.scheme, o.stored_bit ? "1" : "0", o.phase_name,
                o.data_survived ? "yes" : "NO (bit lost)"});
  }
  std::printf("%s\n", pf.to_string().c_str());

  bool destructive_window = false;
  bool nondes_always_safe = true;
  for (const auto& o : outcomes) {
    if (o.scheme == "destructive self-ref" && !o.data_survived) {
      destructive_window = true;
    }
    if (o.scheme == "nondestructive self-ref" && !o.data_survived) {
      nondes_always_safe = false;
    }
  }

  std::printf("Paper-vs-measured:\n");
  bench::compare("nondestructive read latency ~15 ns", 15e-9,
                 nondes.worst_latency().value(), "s");
  bench::claim("two write pulses eliminated (0 writes vs 2 writes)",
               nondes.write_pulses_read1 == 0 &&
                   destructive.write_pulses_read1 == 2);
  bench::claim("read latency dramatically reduced (>1.5x)", speedup > 1.5);
  bench::claim("read energy dramatically reduced (>2x)", energy_ratio > 2.0);
  bench::claim(
      "destructive scheme loses data when power fails before write-back",
      destructive_window);
  bench::claim("nondestructive scheme preserves the bit through any "
               "power failure",
               nondes_always_safe);
  return bench::exit_code();
}
