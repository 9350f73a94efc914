// Fig. 7 — Robustness against the NMOS transistor resistance shift dR
// between the two read currents: sense margins vs dR for both schemes,
// with the allowable windows (Table II: +-468 Ohm conventional, +-130 Ohm
// nondestructive).
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 7",
                 "sense margin vs NMOS resistance shift dR = R_T2 - R_T1");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const DestructiveSelfReference conv(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  const double beta_conv = 1.22;
  const double beta_nondes = 2.13;

  AsciiPlot plot("sense margins vs dR (mV)", "dR [Ohm]", "SM [mV]", 76, 22);
  PlotSeries s0c{"SM0-Con", 'o', {}, {}};
  PlotSeries s1c{"SM1-Con", 'x', {}, {}};
  PlotSeries s0n{"SM0-Nondes", '0', {}, {}};
  PlotSeries s1n{"SM1-Nondes", '1', {}, {}};
  for (const double dr : linspace(-600.0, 600.0, 48)) {
    SchemeMismatch mm;
    mm.delta_r_t = Ohm(dr);
    const SenseMargins mc = conv.margins(beta_conv, mm);
    const SenseMargins mn = nondes.margins(beta_nondes, mm);
    s0c.xs.push_back(dr);
    s0c.ys.push_back(mc.sm0.value() * 1e3);
    s1c.xs.push_back(dr);
    s1c.ys.push_back(mc.sm1.value() * 1e3);
    s0n.xs.push_back(dr);
    s0n.ys.push_back(mn.sm0.value() * 1e3);
    s1n.xs.push_back(dr);
    s1n.ys.push_back(mn.sm1.value() * 1e3);
  }
  plot.add_series(s0c);
  plot.add_series(s1c);
  plot.add_series(s0n);
  plot.add_series(s1n);
  plot.add_hline(0.0);
  std::printf("%s\n", plot.render().c_str());

  const Window exact_c = delta_r_window(conv, beta_conv);
  const Window exact_n = delta_r_window(nondes, beta_nondes);
  const Window paper_c = conv.paper_delta_r_window(beta_conv);
  const Window paper_n = nondes.paper_delta_r_window(beta_nondes);
  std::printf("allowable dR, conventional:    exact (%.1f, %.1f) Ohm, "
              "paper Eq.(18) (%.1f, %.1f) Ohm\n",
              exact_c.lo, exact_c.hi, paper_c.lo, paper_c.hi);
  std::printf("allowable dR, nondestructive:  exact (%.1f, %.1f) Ohm, "
              "paper Eq.(19) (%.1f, %.1f) Ohm\n",
              exact_n.lo, exact_n.hi, paper_n.lo, paper_n.hi);

  std::printf("\nPaper-vs-measured:\n");
  bench::compare("conventional +dR bound (paper Eq. 18 form)", 468.0,
                 paper_c.hi, "Ohm");
  bench::compare("nondestructive +dR bound", 130.0, paper_n.hi, "Ohm");
  bench::compare("nondestructive exact +dR bound", 130.0, exact_n.hi, "Ohm");
  bench::compare("nondestructive exact -dR bound", -130.0, exact_n.lo,
                 "Ohm");
  bench::compare("nondestructive bound as % of R_T", 14.2,
                 paper_n.hi / 917.0 * 100.0, "%");
  bench::claim("conventional tolerates much more dR than nondestructive",
               exact_c.width() > 2.0 * exact_n.width());
  bench::claim("margins are linear in dR (SM1 falling, SM0 rising)",
               s1n.ys.front() > s1n.ys.back() && s0n.ys.front() < s0n.ys.back());
  return bench::exit_code();
}
