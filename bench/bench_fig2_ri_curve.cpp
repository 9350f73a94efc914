// Fig. 2 — Measured static R-I curve of an MgO-based MTJ.
//
// Regenerates the resistance-vs-sensing-current series of both
// magnetization states with the calibrated linear law (the paper's 4 ns
// pulse measurement) and the Simmons tunneling law (the physically
// curved alternative), and checks the curve properties the paper calls
// out: TMR > 100 % and a much steeper high-state roll-off.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/table.hpp"

STTRAM_PAPER_SECTION(bench_fig2_ri_curve) {
  heading("Fig. 2", "static R-I curve of the MgO MTJ (90x180 nm)");

  const MtjParams& params = paper_design().mtj;
  const LinearRiModel linear(params);
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(params);
  const Ampere i_max = params.i_droop_ref;

  TextTable table({"I [uA]", "R_H linear [Ohm]", "R_H simmons [Ohm]",
                   "R_L linear [Ohm]", "R_L simmons [Ohm]", "TMR [%]"});
  AsciiPlot plot("R vs sensing current (H = high/AP state, L = low/P state)",
                 "sensing current [uA]", "R [Ohm]");
  PlotSeries h{"R_H (linear law, 4 ns pulse calib.)", 'H', {}, {}};
  PlotSeries hs{"R_H (Simmons law, DC-like curvature)", 'h', {}, {}};
  PlotSeries l{"R_L (linear law)", 'L', {}, {}};

  for (const double frac : linspace(0.0, 1.0, 20)) {
    const Ampere i = i_max * frac;
    const double rh = linear.resistance(MtjState::kAntiParallel, i).value();
    const double rhs = simmons.resistance(MtjState::kAntiParallel, i).value();
    const double rl = linear.resistance(MtjState::kParallel, i).value();
    const double rls = simmons.resistance(MtjState::kParallel, i).value();
    table.add_row({std::to_string(i.value() * 1e6).substr(0, 6),
                   std::to_string(rh).substr(0, 7),
                   std::to_string(rhs).substr(0, 7),
                   std::to_string(rl).substr(0, 7),
                   std::to_string(rls).substr(0, 7),
                   std::to_string(linear.tmr(i) * 100.0).substr(0, 6)});
    add_point(h, i.value() * 1e6, rh);
    add_point(hs, i.value() * 1e6, rhs);
    add_point(l, i.value() * 1e6, rl);
  }
  plot.add_series(h);
  plot.add_series(hs);
  plot.add_series(l);
  std::printf("%s\n", plot.render().c_str());
  std::printf("%s\n", table.to_string().c_str());

  // The device is fitted to these four numbers (DESIGN.md §2).
  constexpr auto kFitted = Tolerance::frac(1e-9);
  row("fig2.r_h0", "R_H at I->0", 2500.0,
      linear.resistance(MtjState::kAntiParallel, Ampere(0)).value(), "Ohm",
      kFitted);
  row("fig2.r_l0", "R_L at I->0", 1220.0,
      linear.resistance(MtjState::kParallel, Ampere(0)).value(), "Ohm",
      kFitted);
  row("fig2.droop_h", "dR_Hmax (roll-off at I_max)", 600.0,
      linear.droop(MtjState::kAntiParallel, Ampere(0), i_max).value(), "Ohm",
      kFitted);
  row("fig2.droop_l", "dR_Lmax", 10.0,
      linear.droop(MtjState::kParallel, Ampere(0), i_max).value(), "Ohm",
      kFitted);
  const double slope_ratio =
      linear.droop(MtjState::kAntiParallel, Ampere(0), i_max) /
      linear.droop(MtjState::kParallel, Ampere(0), i_max);
  row("fig2.tmr", "TMR > 100 % (MgO junction)", linear.tmr(Ampere(0)) > 1.0);
  row("fig2.rolloff_ratio",
      "high-state roll-off much steeper than low-state (60x)",
      slope_ratio > 10.0);
  row("fig2.simmons_endpoints",
      "Simmons law matches linear-law endpoints at 0 and I_max",
      approx_equal(simmons.resistance(MtjState::kAntiParallel, i_max).value(),
                   linear.resistance(MtjState::kAntiParallel, i_max).value(),
                   1e-6));
}
