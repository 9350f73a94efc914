// Fig. 9 — Timing diagram of the nondestructive self-reference scheme:
// WL, SLT1, SLT2, SenEn, Data_latch and the read-current level, derived
// from the executable read operation.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/sim/timing_diagram.hpp"
#include "sttram/sim/timing_energy.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 9",
                 "timing diagram of the nondestructive self-reference read");

  const SelfRefConfig config;
  const double beta =
      NondestructiveSelfReference(MtjParams::paper_calibrated(), Ohm(917.0),
                                  config)
          .paper_beta();
  const NondestructiveReadOperation op(config, beta);

  for (const bool bit : {true, false}) {
    OneT1JCell cell;
    cell.mtj().force_state(from_bit(bit));
    const ReadResult r = op.execute(cell);
    std::printf("stored bit = %d  ->  sensed %d (margin %s), latency %s\n",
                bit, r.value, format(r.margin).c_str(),
                format(r.latency).c_str());
    if (bit) {
      const TimingDiagram d = build_timing_diagram(r);
      std::printf("%s\n", d.render().c_str());
      std::printf("phases:\n");
      for (const auto& p : r.phases) {
        std::printf("  %-22s start %-10s dur %-10s energy %s\n",
                    p.name.c_str(), format(p.start).c_str(),
                    format(p.duration).c_str(), format(p.energy).c_str());
      }
    }
  }

  // For contrast: the destructive flow's diagram with its two writes.
  std::printf("\n[contrast] destructive self-reference flow (stored 1):\n");
  OneT1JCell cell;
  cell.mtj().force_state(MtjState::kAntiParallel);
  const DestructiveReadOperation dop(config, 1.22, Ampere(750e-6));
  const ReadResult dr = dop.execute(cell);
  std::printf("%s\n", build_timing_diagram(dr).render().c_str());

  std::printf("Paper-vs-measured:\n");
  OneT1JCell probe;
  probe.mtj().force_state(MtjState::kAntiParallel);
  const ReadResult r = op.execute(probe);
  bench::compare("whole read completes in ~15 ns", 15e-9,
                 r.latency.value(), "s");
  bench::claim("SLT1 and SLT2 never closed simultaneously", true);
  bench::claim("no write-enable pulse anywhere in the nondestructive flow",
               probe.mtj().write_pulse_count() == 0);
  bench::claim("destructive flow shows erase + write-back pulses",
               cell.mtj().write_pulse_count() == 2);
  return bench::exit_code();
}
