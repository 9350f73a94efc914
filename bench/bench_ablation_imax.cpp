// Ablation (the paper's future-work remark in Sec. V): the sense margin
// and robustness of the nondestructive scheme improve when the maximum
// allowable read current I_max is increased — at the cost of read-disturb
// headroom, which we quantify with the switching model.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/robustness.hpp"

STTRAM_PAPER_SECTION(bench_ablation_imax) {
  heading("Ablation", "sense margin & robustness vs I_max");

  const auto& [mtj, r_t, config, conv, nondes] = paper_design();
  const SwitchingModel switching(mtj);
  const Second read_dwell(5e-9);

  TextTable t({"I_max [uA]", "beta*", "SM at beta* [mV]", "dR window [Ohm]",
               "d-alpha window [%]", "disturb P(5 ns)"});
  std::vector<double> margins;
  std::vector<double> dr_widths;
  for (const double i_ua : {50.0, 100.0, 150.0, 200.0, 250.0, 300.0}) {
    SelfRefConfig cfg;
    cfg.i_max = Ampere(i_ua * 1e-6);
    const NondestructiveSelfReference scheme(mtj, r_t, cfg);
    const double beta = scheme.paper_beta();
    const SenseMargins m = scheme.margins(beta);
    const Window dr = delta_r_window(scheme, beta);
    const Window da = scheme.alpha_deviation_window(beta);
    const double disturb =
        switching.read_disturb_probability(cfg.i_max, read_dwell);
    margins.push_back(m.min().value());
    dr_widths.push_back(dr.width());
    t.add_row({format_double(i_ua, 4), fmt("%.3f", beta),
               fmt("%.2f", m.min().value() * 1e3),
               fmt("%.0f .. %.0f", dr.lo, dr.hi),
               fmt("%.2f .. %.2f", da.lo * 100.0, da.hi * 100.0),
               fmt("%.1e", disturb)});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("largest read current with disturb probability < 1e-9 over "
              "5 ns: %s\n\n",
              format(switching.max_nondisturbing_current(read_dwell, 1e-9))
                  .c_str());

  std::printf("Reproduction claims (paper Sec. V, future work):\n");
  row("imax.margin_grows", "sense margin grows monotonically with I_max",
      std::is_sorted(margins.begin(), margins.end()));
  row("imax.window_widens", "dR robustness window widens with I_max",
      std::is_sorted(dr_widths.begin(), dr_widths.end()));
  row("imax.disturb_200ua",
      "paper's I_max=200 uA keeps read disturb negligible (<1e-6)",
      switching.read_disturb_probability(Ampere(200e-6), read_dwell) < 1e-6);
}
