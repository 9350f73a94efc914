// Process-corner analysis: scheme margins at the +-3-sigma corners of
// the common-mode (barrier thickness) and TMR variation axes.  Shows
// which corners threaten each scheme: the conventional read dies at the
// resistance corners (fixed V_REF), the self-reference schemes only
// care about the TMR (signal) axis.
#include <cstdio>

#include "paper.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/io/table.hpp"

STTRAM_PAPER_SECTION(bench_corners) {
  heading("Corners", "scheme margins at +-3-sigma process corners");

  const auto& [nominal, r_t, config, nom_destr, nom_nondes] =
      paper_design();
  const MtjVariationModel variation(nominal, VariationParams{});

  // Shared reference and designed betas from the nominal device.
  const ConventionalSensing nom_conv(nominal, r_t, config.i_max);
  const Volt v_ref = nom_conv.midpoint_reference();
  const double beta_d = nom_destr.paper_beta();
  const double beta_n = nom_nondes.paper_beta();
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
      t.add_row({fmt("common%+d tmr%+d", cdir, tdir),
                 fmt("%.0f", p.r_low0.value()),
                 fmt("%.1f", p.tmr0() * 100.0),
                 fmt("%.2f", sm_conv * 1e3),
                 fmt("%.2f", sm_destr * 1e3),
                 fmt("%.2f", sm_nondes * 1e3)});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Corner claims:\n");
  row("corners.conv_fails",
      "conventional sensing fails at a 3-sigma resistance corner",
      conv_fails_somewhere);
  row("corners.selfref_pass",
      "both self-reference schemes pass every 3-sigma corner",
      selfref_always_pass);
  row("corners.nondes_low_tmr",
      "nondestructive worst corner is the low-TMR one", nondes_worst_tmr == -1);
}
