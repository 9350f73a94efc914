// Table I — Electrical parameters of the MTJ and NMOS transistor, plus
// the derived per-scheme rows (resistances at the two read currents,
// optimal read-current ratio, maximum sense margin).
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/table.hpp"

STTRAM_PAPER_SECTION(bench_table1_parameters) {
  heading("Table I", "electrical parameters of MTJ and NMOS transistor");

  const auto& [mtj, r_t, config, conv, nondes] = paper_design();
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
  // Tolerances: the paper prints beta to 0.01 and dR_L to 0.1 Ohm; it
  // evaluates dR_H at its rounded beta (1 %); the nondestructive margin
  // comes out 4 % high on the reconstructed device (DESIGN.md §2).
  const auto droop = [&](MtjState s, const SelfReferenceScheme& scheme,
                         double beta) {
    return model.droop(s, scheme.first_read_current(beta), config.i_max)
        .value();
  };
  row("table1.beta_conv", "conventional beta (Eq. 5)", 1.22, beta_conv, "",
      Tolerance::abs(0.005));
  row("table1.sm_conv", "conventional max sense margin", 76.6e-3,
      conv.margins(beta_conv).max().value(), "V", Tolerance::frac(0.01));
  row("table1.droop_h_conv", "conventional dR_H at beta", 108.2,
      droop(MtjState::kAntiParallel, conv, beta_conv), "Ohm",
      Tolerance::frac(0.01));
  row("table1.beta_nondes", "nondestructive beta (Eq. 10)", 2.13, beta_nondes,
      "", Tolerance::abs(0.005));
  row("table1.sm_nondes", "nondestructive max sense margin", 12.1e-3,
      nondes.margins(beta_nondes).max().value(), "V", Tolerance::frac(0.05));
  row("table1.droop_h_nondes", "nondestructive dR_H at beta", 3178.0 / 10.0,
      droop(MtjState::kAntiParallel, nondes, beta_nondes), "Ohm",
      Tolerance::frac(0.01));
  row("table1.droop_l_nondes", "nondestructive dR_L at beta", 5.3,
      droop(MtjState::kParallel, nondes, beta_nondes), "Ohm",
      Tolerance::abs(0.05));
  row("table1.margin_ratio", "conventional margin >> nondestructive margin",
      conv.margins(beta_conv).max() > 3.0 * nondes.margins(beta_nondes).max());
  row("table1.beta_ratio", "nondestructive needs a larger read-current ratio",
      beta_nondes > 1.5 * beta_conv);
}
