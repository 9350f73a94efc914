// Fig. 4 — The R-I curve annotated with the operating points of the
// self-reference schemes: R_H1/R_L1 at the first-read current and the
// total roll-offs dR_Hmax/dR_Lmax at I_max.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"

using namespace sttram;

int main() {
  bench::heading("Fig. 4", "R-I curve with self-reference operating points");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const LinearRiModel model(mtj);
  const SelfRefConfig config;
  const NondestructiveSelfReference nondes(mtj, Ohm(917.0), config);
  const double beta = nondes.paper_beta();
  const Ampere i1 = nondes.first_read_current(beta);
  const Ampere i2 = config.i_max;

  AsciiPlot plot("R-I curve with I_R1 / I_max marked", "I [uA]", "R [Ohm]",
                 76, 22);
  PlotSeries h{"R_H(I)", 'H', {}, {}};
  PlotSeries l{"R_L(I)", 'L', {}, {}};
  for (const double frac : linspace(0.0, 1.0, 60)) {
    const Ampere i = i2 * frac;
    h.xs.push_back(i.value() * 1e6);
    h.ys.push_back(model.resistance(MtjState::kAntiParallel, i).value());
    l.xs.push_back(i.value() * 1e6);
    l.ys.push_back(model.resistance(MtjState::kParallel, i).value());
  }
  plot.add_series(h);
  plot.add_series(l);
  plot.add_vline(i1.value() * 1e6);
  plot.add_vline(i2.value() * 1e6);
  std::printf("%s\n", plot.render().c_str());

  TextTable t({"operating point", "value"});
  t.add_row({"I_R1 (first read)", format(i1)});
  t.add_row({"I_max = I_R2 (second read)", format(i2)});
  t.add_row({"R_H1 = R_H(I_R1)",
             format(model.resistance(MtjState::kAntiParallel, i1))});
  t.add_row({"R_L1 = R_L(I_R1)",
             format(model.resistance(MtjState::kParallel, i1))});
  t.add_row({"R_H(I_max)",
             format(model.resistance(MtjState::kAntiParallel, i2))});
  t.add_row({"R_L(I_max)",
             format(model.resistance(MtjState::kParallel, i2))});
  t.add_row({"dR_Hmax = R_H(0) - R_H(I_max)",
             format(model.droop(MtjState::kAntiParallel, Ampere(0), i2))});
  t.add_row({"dR_Lmax", format(model.droop(MtjState::kParallel, Ampere(0),
                                           i2))});
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Paper-vs-measured:\n");
  bench::compare("R_H1 at the nondestructive operating point", 2218.0,
                 model.resistance(MtjState::kAntiParallel, i1).value(),
                 "Ohm");
  bench::compare("R_L1", 1215.3,
                 model.resistance(MtjState::kParallel, i1).value(), "Ohm");
  bench::claim("dR_Hmax/dR_Lmax = 60 (high state rolls off 60x steeper)",
               approx_equal(model.droop(MtjState::kAntiParallel, Ampere(0),
                                        i2) /
                                model.droop(MtjState::kParallel, Ampere(0),
                                            i2),
                            60.0, 1e-9));
  return bench::exit_code();
}
