// Ablation (the paper's future-work remark in Sec. V): the sense margin
// and robustness of the nondestructive scheme improve when the maximum
// allowable read current I_max is increased — at the cost of read-disturb
// headroom, which we quantify with the switching model.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

int main() {
  bench::heading("Ablation", "sense margin & robustness vs I_max");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
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
    char b[16], sm[16], drw[32], daw[32], p[16];
    std::snprintf(b, sizeof(b), "%.3f", beta);
    std::snprintf(sm, sizeof(sm), "%.2f", m.min().value() * 1e3);
    std::snprintf(drw, sizeof(drw), "%.0f .. %.0f", dr.lo, dr.hi);
    std::snprintf(daw, sizeof(daw), "%.2f .. %.2f", da.lo * 100.0,
                  da.hi * 100.0);
    std::snprintf(p, sizeof(p), "%.1e", disturb);
    t.add_row({format_double(i_ua, 4), b, sm, drw, daw, p});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("largest read current with disturb probability < 1e-9 over "
              "5 ns: %s\n\n",
              format(switching.max_nondisturbing_current(read_dwell, 1e-9))
                  .c_str());

  std::printf("Reproduction claims (paper Sec. V, future work):\n");
  bench::claim("sense margin grows monotonically with I_max",
               std::is_sorted(margins.begin(), margins.end()));
  bench::claim("dR robustness window widens with I_max",
               std::is_sorted(dr_widths.begin(), dr_widths.end()));
  bench::claim("paper's I_max=200 uA keeps read disturb negligible (<1e-6)",
               switching.read_disturb_probability(Ampere(200e-6),
                                                  read_dwell) < 1e-6);
  return bench::exit_code();
}
