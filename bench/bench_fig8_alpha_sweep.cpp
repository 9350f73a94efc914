// Fig. 8 — Robustness of the nondestructive scheme against voltage-ratio
// (divider) variation: sense margins vs the relative alpha deviation and
// the allowable window (Table II: -5.71 % .. +4.13 %).
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 8",
                 "sense margin vs voltage-ratio variation (nondestructive)");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  const double beta = 2.13;

  AsciiPlot plot("sense margins vs d-alpha (mV)",
                 "alpha deviation [%]", "SM [mV]", 76, 22);
  PlotSeries s0{"SM0-Nondes", '0', {}, {}};
  PlotSeries s1{"SM1-Nondes", '1', {}, {}};
  for (const double dev : linspace(-0.08, 0.06, 56)) {
    SchemeMismatch mm;
    mm.alpha_deviation = dev;
    const SenseMargins m = nondes.margins(beta, mm);
    s0.xs.push_back(dev * 100.0);
    s0.ys.push_back(m.sm0.value() * 1e3);
    s1.xs.push_back(dev * 100.0);
    s1.ys.push_back(m.sm1.value() * 1e3);
  }
  plot.add_series(s0);
  plot.add_series(s1);
  plot.add_hline(0.0);
  std::printf("%s\n", plot.render().c_str());

  const Window w = nondes.alpha_deviation_window(beta);
  std::printf("allowable alpha variation: %.2f %% .. %.2f %%\n",
              w.lo * 100.0, w.hi * 100.0);

  std::printf("\nPaper-vs-measured:\n");
  bench::compare("max alpha deviation", 4.13, w.hi * 100.0, "%");
  bench::compare("min alpha deviation", -5.71, w.lo * 100.0, "%");
  bench::claim("window is asymmetric (more headroom on the low side)",
               -w.lo > w.hi);
  bench::claim("SM1 falls and SM0 rises with alpha",
               s1.ys.front() > s1.ys.back() && s0.ys.front() < s0.ys.back());
  // The designed alpha = 0.5 symmetric divider sits inside the window.
  bench::claim("designed alpha (0 % deviation) is inside the window",
               w.contains(0.0));
  return bench::exit_code();
}
