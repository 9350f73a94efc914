// Fig. 6 — Selection of the read-current ratio beta = I_R2/I_R1: sense
// margins SM0/SM1 of both self-reference schemes versus beta, with the
// valid-beta windows.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 6", "sense margin vs read-current ratio beta");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const DestructiveSelfReference conv(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);

  AsciiPlot plot("sense margins vs beta (mV)", "beta = I_R2 / I_R1",
                 "SM [mV]", 76, 24);
  PlotSeries sm0c{"SM0-Con (conventional self-ref, stored 0)", 'o', {}, {}};
  PlotSeries sm1c{"SM1-Con (conventional self-ref, stored 1)", 'x', {}, {}};
  PlotSeries sm0n{"SM0-Nondes (nondestructive, stored 0)", '0', {}, {}};
  PlotSeries sm1n{"SM1-Nondes (nondestructive, stored 1)", '1', {}, {}};

  TextTable table({"beta", "SM0-Con [mV]", "SM1-Con [mV]", "SM0-Nondes [mV]",
                   "SM1-Nondes [mV]"});
  for (const double beta : linspace(1.02, 3.6, 40)) {
    const SenseMargins mc = conv.margins(beta);
    const SenseMargins mn = nondes.margins(beta);
    sm0c.xs.push_back(beta);
    sm0c.ys.push_back(mc.sm0.value() * 1e3);
    sm1c.xs.push_back(beta);
    sm1c.ys.push_back(mc.sm1.value() * 1e3);
    sm0n.xs.push_back(beta);
    sm0n.ys.push_back(mn.sm0.value() * 1e3);
    sm1n.xs.push_back(beta);
    sm1n.ys.push_back(mn.sm1.value() * 1e3);
    char b[16], c0[16], c1[16], n0[16], n1[16];
    std::snprintf(b, sizeof(b), "%.3f", beta);
    std::snprintf(c0, sizeof(c0), "%.2f", mc.sm0.value() * 1e3);
    std::snprintf(c1, sizeof(c1), "%.2f", mc.sm1.value() * 1e3);
    std::snprintf(n0, sizeof(n0), "%.2f", mn.sm0.value() * 1e3);
    std::snprintf(n1, sizeof(n1), "%.2f", mn.sm1.value() * 1e3);
    table.add_row({b, c0, c1, n0, n1});
  }
  plot.add_series(sm0c);
  plot.add_series(sm1c);
  plot.add_series(sm0n);
  plot.add_series(sm1n);
  plot.add_hline(0.0);
  std::printf("%s\n", plot.render().c_str());
  std::printf("%s\n", table.to_string().c_str());

  const Window wc = beta_window(conv);
  const Window wn = beta_window(nondes);
  std::printf("valid beta window, conventional self-ref:    [%.4f, %.4f]\n",
              wc.lo, wc.hi);
  std::printf("valid beta window, nondestructive self-ref:  [%.4f, %.4f]\n",
              wn.lo, wn.hi);
  std::printf("\nPaper-vs-measured:\n");
  bench::compare("conventional designed beta inside window", 1.22,
                 wc.contains(1.22) ? 1.22 : -1.0, "");
  bench::compare("nondestructive designed beta inside window", 2.13,
                 wn.contains(2.13) ? 2.13 : -1.0, "");
  bench::compare("conventional equal-margin beta", 1.22,
                 conv.optimal_beta(), "");
  bench::compare("nondestructive equal-margin beta", 2.13,
                 nondes.optimal_beta(), "");
  bench::claim("nondestructive window sits at higher beta than conventional",
               wn.lo > wc.hi * 0.9);
  bench::claim("margins cross (SM0 rising, SM1 falling) inside each window",
               conv.margins(wc.lo + 0.01).sm1 > conv.margins(wc.lo + 0.01).sm0 &&
                   conv.margins(wc.hi - 0.01).sm0 >
                       conv.margins(wc.hi - 0.01).sm1);
  return bench::exit_code();
}
