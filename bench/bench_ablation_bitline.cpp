// Ablation (paper Sec. V): "Additional capacitor at the end of BL
// increases the RC delay and consequently elongates the read latency.  A
// high impedance voltage divider, however, does not change the Elmore
// delay of BL."  Sweeps the bit-line length and the sampling capacitor
// and compares the second-read settle of the two schemes.
#include <cstdio>

#include "paper.hpp"
#include "sttram/cell/bitline.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/table.hpp"

STTRAM_PAPER_SECTION(bench_ablation_bitline) {
  heading("Ablation", "bit-line Elmore delay: sampling capacitor vs divider");

  const Ohm source(2817.0);  // high-state path resistance at I_max
  const double tol = 0.01;

  TextTable t({"cells/BL", "C2 [fF]", "Elmore (divider)", "Elmore (C2)",
               "settle (divider)", "settle (C2)", "penalty"});
  bool monotone = true;
  double last_penalty = 0.0;
  for (const std::size_t cells : {64u, 128u, 256u}) {
    for (const double c2_f : {100e-15, 250e-15, 500e-15}) {
      BitlineParams divider_bl;
      divider_bl.cells_per_bitline = cells;
      BitlineParams cap_bl = divider_bl;
      cap_bl.extra_sense_capacitance = Farad(c2_f);
      const Bitline with_divider(divider_bl);
      const Bitline with_cap(cap_bl);
      const Second s_div = with_divider.settling_time(source, tol);
      const Second s_cap = with_cap.settling_time(source, tol);
      const double penalty = s_cap / s_div;
      if (cells == 128u && c2_f > 100e-15 && penalty < last_penalty) {
        monotone = false;
      }
      if (cells == 128u) last_penalty = penalty;
      t.add_row({std::to_string(cells), format_double(c2_f * 1e15, 3),
                 format(with_divider.elmore_delay()),
                 format(with_cap.elmore_delay()), format(s_div),
                 format(s_cap), fmt("%.2fx", penalty)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  BitlineParams nominal;
  const Bitline line(nominal);
  std::printf("leakage of 127 unselected cells at V_BL = 563 mV: %s "
              "(%.2f %% of the 200 uA read current)\n\n",
              format(line.leakage_current(Volt(0.563))).c_str(),
              line.leakage_error(Ampere(200e-6), Volt(0.563)) * 100.0);

  BitlineParams c2_bl;
  c2_bl.extra_sense_capacitance = Farad(250e-15);
  const Bitline with_c2(c2_bl);
  std::printf("Reproduction claims (paper Sec. V):\n");
  row("bitline.divider_same", "divider leaves the BL Elmore delay unchanged",
      line.elmore_delay() == Bitline(nominal).elmore_delay());
  row("bitline.c2_slower", "sampling capacitor increases the BL Elmore delay",
      with_c2.elmore_delay() > line.elmore_delay());
  row("bitline.c2_penalty_grows", "C2 settle penalty grows with the capacitor",
      monotone);
  row("bitline.read2_faster",
      "nondestructive 2nd read is faster than destructive 2nd read",
      line.settling_time(source, tol) < with_c2.settling_time(source, tol));
  row("bitline.leakage_small", "divider leakage error is negligible (< 1 %)",
      line.leakage_error(Ampere(200e-6), Volt(0.563)) < 0.01);
}
