// Ablation: what the schemes' sense margins cost in latch decision time
// and metastability risk — the quantitative version of the paper's
// remark that the nondestructive scheme's "relatively small sense
// margin" demands a capable (auto-zeroed) sense amplifier.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/latch.hpp"
#include "sttram/sense/noise.hpp"

STTRAM_PAPER_SECTION(bench_ablation_latch) {
  heading("Ablation", "latch decision time vs scheme margin");

  const auto& [mtj, r_t, config, destructive, nondes] = paper_design();
  const LatchDynamics latch;
  const ConventionalSensing conv(mtj, r_t, config.i_max);

  struct Row {
    const char* scheme;
    double margin;
  };
  const Row rows[] = {
      {"conventional (nominal device)",
       conv.margins(conv.midpoint_reference()).min().value()},
      {"destructive self-ref", destructive.margins(1.22).min().value()},
      {"nondestructive self-ref", nondes.margins(2.13).min().value()},
      {"nondestructive, worst 16-kb bit", 8.58e-3},
  };

  TextTable t({"scheme", "margin [mV]", "decision time",
               "P(metastable | 0.5 ns strobe)", "strobe for 1e-9"});
  double t_nondes = 0.0, t_destr = 0.0;
  for (const Row& r : rows) {
    const Second td = latch.decision_time(Volt(r.margin));
    const double pm =
        latch.metastability_probability(Volt(r.margin), Second(0.5e-9));
    const Second strobe = latch.required_strobe(Volt(r.margin), 1e-9);
    if (r.scheme[0] == 'n') t_nondes = td.value();
    if (r.scheme[0] == 'd') t_destr = td.value();
    t.add_row({r.scheme, fmt("%.2f", r.margin * 1e3), format(td),
               fmt("%.1e", pm), format(strobe)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Physical noise floor of the comparison (kT/C of the sampling cap,
  // the bit line through the divider, and the comparator input node).
  const ReadNoiseBudget noise = read_noise_budget(
      Farad(250e-15), Farad(192e-15), Farad(10e-15), 0.5);
  std::printf("read-path noise budget: kT/C1 %s, BL %s, comparator node "
              "%s -> total %s (margin SNR %.0f)\n\n",
              format(noise.ktc_c1).c_str(), format(noise.bitline).c_str(),
              format(noise.divider_output).c_str(),
              format(noise.total).c_str(), 12.6e-3 / noise.total.value());

  std::printf("Claims:\n");
  row("latch.noise_floor", "thermal/sampling noise sits >15x below the margin",
      12.6e-3 / noise.total.value() > 15.0);
  row("latch.small_margin_cost", "smaller margins cost extra regeneration time",
      t_nondes > t_destr);
  row("latch.worst_bit_resolves",
      "even the worst 16-kb bit resolves within the 1.5 ns "
      "sense budget at 1e-9 risk",
      latch.required_strobe(Volt(8.58e-3), 1e-9).value() < 1.5e-9);
  row("latch.unzeroed_marginal",
      "an un-zeroed amp (5 mV offset eats the margin) would be "
      "marginal — the paper's auto-zero choice",
      latch.metastability_probability(Volt(12.6e-3 - 5e-3 - 4e-3),
                                      Second(0.5e-9)) >
          latch.metastability_probability(Volt(12.6e-3), Second(0.5e-9)));
}
