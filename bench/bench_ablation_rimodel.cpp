// Ablation: sensitivity of the design conclusions to the R-I model
// choice.  The paper measured one junction; how much do the derived
// quantities (beta*, margins, robustness windows) move if the real curve
// is Simmons-curved (DC-like) rather than the calibrated linear law?
#include <cstdio>

#include "paper.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/robustness.hpp"

STTRAM_PAPER_SECTION(bench_ablation_rimodel) {
  heading("Ablation", "design sensitivity to the R-I model choice");

  const auto& [mtj, r_t, config, conv, nondes] = paper_design();
  const FixedAccessResistor access(r_t);

  const LinearRiModel linear(mtj);
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(mtj);
  const TableRiModel table =
      TableRiModel::sampled_from(simmons, config.i_max * 1.5, 48);

  struct Entry {
    const char* name;
    const RiModel* model;
  };
  const Entry entries[] = {
      {"linear (pulse-calibrated)", &linear},
      {"Simmons (quadratic conductance)", &simmons},
      {"table (sampled Simmons)", &table},
  };

  TextTable t({"R-I model", "beta*", "SM at beta* [mV]", "dR window [Ohm]",
               "d-alpha window [%]"});
  std::vector<double> betas, margins;
  for (const Entry& e : entries) {
    const NondestructiveSelfReference scheme(*e.model, access, config);
    const double beta = scheme.optimal_beta();
    const SenseMargins m = scheme.margins(beta);
    const Window wr = delta_r_window(scheme, beta);
    const Window wa = scheme.alpha_deviation_window(beta);
    betas.push_back(beta);
    margins.push_back(m.min().value());
    t.add_row({e.name, fmt("%.3f", beta),
               fmt("%.2f", m.min().value() * 1e3),
               fmt("%.0f .. %.0f", wr.lo, wr.hi),
               fmt("%.2f .. %.2f", wa.lo * 100.0, wa.hi * 100.0)});
  }
  std::printf("%s\n", t.to_string().c_str());

  const double beta_spread =
      (*std::max_element(betas.begin(), betas.end()) -
       *std::min_element(betas.begin(), betas.end())) /
      betas[0];
  const double margin_spread =
      (*std::max_element(margins.begin(), margins.end()) -
       *std::min_element(margins.begin(), margins.end())) /
      margins[0];
  std::printf("beta spread across models: %.1f %%; margin spread: %.1f %%\n\n",
              beta_spread * 100.0, margin_spread * 100.0);

  std::printf("Claims:\n");
  row("rimodel.beta_robust",
      "designed beta robust to the curve model (< 15 % spread)",
      beta_spread < 0.15);
  row("rimodel.margins_8mv",
      "margins stay above the 8 mV requirement on every model",
      *std::min_element(margins.begin(), margins.end()) > 8e-3);
  row("rimodel.table_optimum",
      "table model reproduces its source model's optimum",
      std::fabs(betas[2] - betas[1]) < 0.05);
}
