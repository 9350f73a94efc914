// Fig. 7 — Robustness against the NMOS transistor resistance shift dR
// between the two read currents: sense margins vs dR for both schemes,
// with the allowable windows (Table II: +-468 Ohm conventional, +-130 Ohm
// nondestructive).
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sense/robustness.hpp"

STTRAM_PAPER_SECTION(bench_fig7_deltaR_sweep) {
  heading("Fig. 7", "sense margin vs NMOS resistance shift dR = R_T2 - R_T1");

  const auto& [mtj, r_t, config, conv, nondes] = paper_design();
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
    add_point(s0c, dr, mc.sm0.value() * 1e3);
    add_point(s1c, dr, mc.sm1.value() * 1e3);
    add_point(s0n, dr, mn.sm0.value() * 1e3);
    add_point(s1n, dr, mn.sm1.value() * 1e3);
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
  // Table II's rows carry the conventional Eq. 18 bound and the exact
  // nondestructive bounds.  The paper prints Ohm and % to one digit less.
  row("fig7.dr_nondes_eq19", "nondestructive +dR bound", 130.0, paper_n.hi,
      "Ohm", Tolerance::abs(0.5));
  row("fig7.dr_nondes_pct", "nondestructive bound as % of R_T", 14.2,
      paper_n.hi / 917.0 * 100.0, "%", Tolerance::abs(0.05));
  row("fig7.dr_conv_wider",
      "conventional tolerates much more dR than nondestructive",
      exact_c.width() > 2.0 * exact_n.width());
  row("fig7.linear_in_dr", "margins are linear in dR (SM1 falling, SM0 rising)",
      s1n.ys.front() > s1n.ys.back() && s0n.ys.front() < s0n.ys.back());
}
