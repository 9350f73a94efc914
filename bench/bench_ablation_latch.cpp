// Ablation: what the schemes' sense margins cost in latch decision time
// and metastability risk — the quantitative version of the paper's
// remark that the nondestructive scheme's "relatively small sense
// margin" demands a capable (auto-zeroed) sense amplifier.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/latch.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/noise.hpp"

using namespace sttram;

int main() {
  bench::heading("Ablation", "latch decision time vs scheme margin");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const LatchDynamics latch;

  const DestructiveSelfReference destructive(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);
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
    char m[16], p[16];
    std::snprintf(m, sizeof(m), "%.2f", r.margin * 1e3);
    std::snprintf(p, sizeof(p), "%.1e", pm);
    t.add_row({r.scheme, m, format(td), p, format(strobe)});
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
  bench::claim("thermal/sampling noise sits >15x below the margin",
               12.6e-3 / noise.total.value() > 15.0);
  bench::claim("smaller margins cost extra regeneration time",
               t_nondes > t_destr);
  bench::claim("even the worst 16-kb bit resolves within the 1.5 ns "
               "sense budget at 1e-9 risk",
               latch.required_strobe(Volt(8.58e-3), 1e-9).value() < 1.5e-9);
  bench::claim("an un-zeroed amp (5 mV offset eats the margin) would be "
               "marginal — the paper's auto-zero choice",
               latch.metastability_probability(Volt(12.6e-3 - 5e-3 - 4e-3),
                                               Second(0.5e-9)) >
                   latch.metastability_probability(Volt(12.6e-3),
                                                   Second(0.5e-9)));
  return bench::exit_code();
}
