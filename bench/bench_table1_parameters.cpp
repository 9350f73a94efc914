// Table I — Electrical parameters of the MTJ and NMOS transistor, plus
// the derived per-scheme rows (resistances at the two read currents,
// optimal read-current ratio, maximum sense margin).
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"

using namespace sttram;

int main() {
  bench::heading("Table I",
                 "electrical parameters of MTJ and NMOS transistor");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;  // I_max = 200 uA, alpha = 0.5
  const LinearRiModel model(mtj);

  TextTable dev({"MTJ / NMOS parameter", "value"});
  dev.add_row({"R_H (I->0)", format(mtj.r_high0)});
  dev.add_row({"R_L (I->0)", format(mtj.r_low0)});
  dev.add_row({"dR_Hmax", format(mtj.droop_high)});
  dev.add_row({"dR_Lmax", format(mtj.droop_low)});
  dev.add_row({"R_T", format(r_t)});
  dev.add_row({"I_max (= I_R2)", format(config.i_max)});
  dev.add_row({"TMR(0)", format_percent(model.tmr(Ampere(0)))});
  std::printf("%s\n", dev.to_string().c_str());

  const DestructiveSelfReference conv(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  const double beta_conv = conv.paper_beta();
  const double beta_nondes = nondes.paper_beta();

  const auto scheme_rows = [&](const SelfReferenceScheme& s, double beta) {
    const Ampere i1 = s.first_read_current(beta);
    const Ampere i2 = s.second_read_current();
    TextTable t({"derived row", "value"});
    t.add_row({"I_R1", format(i1)});
    t.add_row({"R_H1 (at I_R1)",
               format(model.resistance(MtjState::kAntiParallel, i1))});
    t.add_row({"R_L1 (at I_R1)",
               format(model.resistance(MtjState::kParallel, i1))});
    t.add_row({"dR_H (I_R1 -> I_R2)",
               format(model.droop(MtjState::kAntiParallel, i1, i2))});
    t.add_row({"dR_L (I_R1 -> I_R2)",
               format(model.droop(MtjState::kParallel, i1, i2))});
    t.add_row({"beta = I_R2/I_R1", format_double(beta, 4)});
    const SenseMargins m = s.margins(beta);
    t.add_row({"SM0", format(m.sm0)});
    t.add_row({"SM1", format(m.sm1)});
    t.add_row({"max sense margin", format(m.max())});
    return t;
  };

  std::printf("Conventional (destructive) self-reference scheme:\n%s\n",
              scheme_rows(conv, beta_conv).to_string().c_str());
  std::printf("Nondestructive self-reference scheme:\n%s\n",
              scheme_rows(nondes, beta_nondes).to_string().c_str());

  std::printf("Paper-vs-measured:\n");
  bench::compare("conventional beta (Eq. 5)", 1.22, beta_conv, "");
  bench::compare("conventional max sense margin", 76.6e-3,
                 conv.margins(beta_conv).max().value(), "V");
  bench::compare("conventional dR_H at beta", 108.2,
                 model
                     .droop(MtjState::kAntiParallel,
                            conv.first_read_current(beta_conv),
                            config.i_max)
                     .value(),
                 "Ohm");
  bench::compare("nondestructive beta (Eq. 10)", 2.13, beta_nondes, "");
  bench::compare("nondestructive max sense margin", 12.1e-3,
                 nondes.margins(beta_nondes).max().value(), "V");
  bench::compare("nondestructive dR_H at beta", 3178.0 / 10.0,
                 model
                     .droop(MtjState::kAntiParallel,
                            nondes.first_read_current(beta_nondes),
                            config.i_max)
                     .value(),
                 "Ohm");
  bench::compare("nondestructive dR_L at beta", 5.3,
                 model
                     .droop(MtjState::kParallel,
                            nondes.first_read_current(beta_nondes),
                            config.i_max)
                     .value(),
                 "Ohm");
  bench::claim("conventional margin >> nondestructive margin",
               conv.margins(beta_conv).max() >
                   3.0 * nondes.margins(beta_nondes).max());
  bench::claim("nondestructive needs a larger read-current ratio",
               beta_nondes > 1.5 * beta_conv);
  return bench::exit_code();
}
