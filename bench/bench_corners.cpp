// Process-corner analysis: scheme margins at the +-3-sigma corners of
// the common-mode (barrier thickness) and TMR variation axes.  Shows
// which corners threaten each scheme: the conventional read dies at the
// resistance corners (fixed V_REF), the self-reference schemes only
// care about the TMR (signal) axis.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"

using namespace sttram;

int main() {
  bench::heading("Corners", "scheme margins at +-3-sigma process corners");

  const MtjParams nominal = MtjParams::paper_calibrated();
  const MtjVariationModel variation(nominal, VariationParams{});
  const Ohm r_t(917.0);
  const SelfRefConfig config;

  // Shared reference and designed betas from the nominal device.
  const ConventionalSensing nom_conv(nominal, r_t, config.i_max);
  const Volt v_ref = nom_conv.midpoint_reference();
  const double beta_d =
      DestructiveSelfReference(nominal, r_t, config).paper_beta();
  const double beta_n =
      NondestructiveSelfReference(nominal, r_t, config).paper_beta();
  const Volt required(8e-3);

  TextTable t({"corner", "R_L0 [Ohm]", "TMR [%]", "conv SM [mV]",
               "destr SM [mV]", "nondes SM [mV]"});
  bool conv_fails_somewhere = false;
  bool selfref_always_pass = true;
  double nondes_worst = 1e9;
  int nondes_worst_tmr = 0;
  for (const int cdir : {-1, 0, 1}) {
    for (const int tdir : {-1, 0, 1}) {
      const MtjParams p = variation.corner(3.0, cdir, tdir);
      const LinearRiModel model(p);
      const FixedAccessResistor access(r_t);
      const ConventionalSensing conv(model, access, config.i_max);
      const double sm_conv = conv.margins(v_ref).min().value();
      const DestructiveSelfReference destr(model, access, config);
      const double sm_destr = destr.margins(beta_d).min().value();
      const NondestructiveSelfReference nondes(model, access, config);
      const double sm_nondes = nondes.margins(beta_n).min().value();
      if (sm_conv < required.value()) conv_fails_somewhere = true;
      if (sm_destr < required.value() || sm_nondes < required.value()) {
        selfref_always_pass = false;
      }
      if (sm_nondes < nondes_worst) {
        nondes_worst = sm_nondes;
        nondes_worst_tmr = tdir;
      }
      char name[32], rl[16], tmr[16], a[16], b[16], c[16];
      std::snprintf(name, sizeof(name), "common%+d tmr%+d", cdir, tdir);
      std::snprintf(rl, sizeof(rl), "%.0f", p.r_low0.value());
      std::snprintf(tmr, sizeof(tmr), "%.1f", p.tmr0() * 100.0);
      std::snprintf(a, sizeof(a), "%.2f", sm_conv * 1e3);
      std::snprintf(b, sizeof(b), "%.2f", sm_destr * 1e3);
      std::snprintf(c, sizeof(c), "%.2f", sm_nondes * 1e3);
      t.add_row({name, rl, tmr, a, b, c});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Corner claims:\n");
  bench::claim("conventional sensing fails at a 3-sigma resistance corner",
               conv_fails_somewhere);
  bench::claim("both self-reference schemes pass every 3-sigma corner",
               selfref_always_pass);
  bench::claim("nondestructive worst corner is the low-TMR one",
               nondes_worst_tmr == -1);
  return bench::exit_code();
}
