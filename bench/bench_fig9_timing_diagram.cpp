// Fig. 9 — Timing diagram of the nondestructive self-reference scheme:
// WL, SLT1, SLT2, SenEn, Data_latch and the read-current level, derived
// from the executable read operation.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/sim/timing_diagram.hpp"
#include "sttram/sim/timing_energy.hpp"

STTRAM_PAPER_SECTION(bench_fig9_timing_diagram) {
  heading("Fig. 9", "timing diagram of the nondestructive self-reference read");

  const SelfRefConfig& config = paper_design().config;
  const double beta = paper_design().nondestructive.paper_beta();
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
  // Sec. V's latency row carries the ~15 ns read.  SLT1 and SLT2 each
  // close, over half-open [start, end) intervals that never overlap.
  std::vector<std::pair<Second, Second>> slt1, slt2;
  for (const SignalTrace& s : build_timing_diagram(r).signals) {
    if (s.name == "SLT1") slt1 = s.asserted;
    if (s.name == "SLT2") slt2 = s.asserted;
  }
  bool exclusive = !slt1.empty() && !slt2.empty();
  for (const auto& [a0, a1] : slt1) {
    for (const auto& [b0, b1] : slt2) {
      exclusive = exclusive && (a1 <= b0 || b1 <= a0);
    }
  }
  row("fig9.slt_exclusive", "SLT1 and SLT2 never closed simultaneously",
      exclusive);
  row("fig9.no_write",
      "no write-enable pulse anywhere in the nondestructive flow",
      probe.mtj().write_pulse_count() == 0);
  row("fig9.destructive_writes",
      "destructive flow shows erase + write-back pulses",
      cell.mtj().write_pulse_count() == 2);
}
