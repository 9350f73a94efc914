// Fig. 2 — Measured static R-I curve of an MgO-based MTJ.
//
// Regenerates the resistance-vs-sensing-current series of both
// magnetization states with the calibrated linear law (the paper's 4 ns
// pulse measurement) and the Simmons tunneling law (the physically
// curved alternative), and checks the curve properties the paper calls
// out: TMR > 100 % and a much steeper high-state roll-off.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/table.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 2", "static R-I curve of the MgO MTJ (90x180 nm)");

  const MtjParams params = MtjParams::paper_calibrated();
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
    h.xs.push_back(i.value() * 1e6);
    h.ys.push_back(rh);
    hs.xs.push_back(i.value() * 1e6);
    hs.ys.push_back(rhs);
    l.xs.push_back(i.value() * 1e6);
    l.ys.push_back(rl);
  }
  plot.add_series(h);
  plot.add_series(hs);
  plot.add_series(l);
  std::printf("%s\n", plot.render().c_str());
  std::printf("%s\n", table.to_string().c_str());

  bench::compare("R_H at I->0", 2500.0,
                 linear.resistance(MtjState::kAntiParallel, Ampere(0)).value(),
                 "Ohm");
  bench::compare("R_L at I->0", 1220.0,
                 linear.resistance(MtjState::kParallel, Ampere(0)).value(),
                 "Ohm");
  bench::compare("dR_Hmax (roll-off at I_max)", 600.0,
                 linear.droop(MtjState::kAntiParallel, Ampere(0), i_max)
                     .value(),
                 "Ohm");
  bench::compare("dR_Lmax", 10.0,
                 linear.droop(MtjState::kParallel, Ampere(0), i_max).value(),
                 "Ohm");
  const double slope_ratio =
      linear.droop(MtjState::kAntiParallel, Ampere(0), i_max) /
      linear.droop(MtjState::kParallel, Ampere(0), i_max);
  bench::claim("TMR > 100 % (MgO junction)", linear.tmr(Ampere(0)) > 1.0);
  bench::claim("high-state roll-off much steeper than low-state (60x)",
               slope_ratio > 10.0);
  bench::claim("Simmons law matches linear-law endpoints at 0 and I_max",
               approx_equal(simmons.resistance(MtjState::kAntiParallel,
                                               i_max)
                                .value(),
                            linear.resistance(MtjState::kAntiParallel, i_max)
                                .value(),
                            1e-6));
  return bench::exit_code();
}
