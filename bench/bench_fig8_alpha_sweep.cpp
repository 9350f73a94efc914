// Fig. 8 — Robustness of the nondestructive scheme against voltage-ratio
// (divider) variation: sense margins vs the relative alpha deviation and
// the allowable window (Table II: -5.71 % .. +4.13 %).
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sense/robustness.hpp"

STTRAM_PAPER_SECTION(bench_fig8_alpha_sweep) {
  heading("Fig. 8", "sense margin vs voltage-ratio variation (nondestructive)");

  const auto& [mtj, r_t, config, conv, nondes] = paper_design();
  const double beta = 2.13;

  AsciiPlot plot("sense margins vs d-alpha (mV)",
                 "alpha deviation [%]", "SM [mV]", 76, 22);
  PlotSeries s0{"SM0-Nondes", '0', {}, {}};
  PlotSeries s1{"SM1-Nondes", '1', {}, {}};
  for (const double dev : linspace(-0.08, 0.06, 56)) {
    SchemeMismatch mm;
    mm.alpha_deviation = dev;
    const SenseMargins m = nondes.margins(beta, mm);
    add_point(s0, dev * 100.0, m.sm0.value() * 1e3);
    add_point(s1, dev * 100.0, m.sm1.value() * 1e3);
  }
  plot.add_series(s0);
  plot.add_series(s1);
  plot.add_hline(0.0);
  std::printf("%s\n", plot.render().c_str());

  const Window w = nondes.alpha_deviation_window(beta);
  std::printf("allowable alpha variation: %.2f %% .. %.2f %%\n",
              w.lo * 100.0, w.hi * 100.0);

  std::printf("\nPaper-vs-measured:\n");
  // Table II's rows carry the window's bounds.
  row("fig8.asymmetric", "window is asymmetric (more headroom on the low side)",
      -w.lo > w.hi);
  row("fig8.linear_in_alpha", "SM1 falls and SM0 rises with alpha",
      s1.ys.front() > s1.ys.back() && s0.ys.front() < s0.ys.back());
  // The designed alpha = 0.5 symmetric divider sits inside the window.
  row("fig8.design_inside",
      "designed alpha (0 % deviation) is inside the window", w.contains(0.0));
}
