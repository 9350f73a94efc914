// Yield-tail extension of Fig. 11: the 16-kb measurement (and our Monte
// Carlo) sees *zero* nondestructive failures — but zero out of how many?
// Importance sampling at the variation design point resolves the per-bit
// failure probability that naive sampling cannot, and shows how it moves
// with the sense-amp requirement and the process sigma.
#include <cstdio>

#include "paper.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"

STTRAM_PAPER_SECTION(bench_yield_tail) {
  heading("Fig. 11 tail", "importance-sampled per-bit failure probability");

  // Baseline: the default (calibrated) variation at the 8 mV threshold.
  TailConfig base;
  const TailEstimate nominal = estimate_margin_tail(base, 1, 20000);
  std::printf("design point at %.2f sigma; per-bit P(margin < 8 mV) = "
              "%.3e (rel err %.2f)\n",
              nominal.design_radius, nominal.estimate.probability,
              nominal.estimate.relative_error);
  std::printf("expected failing bits in a 16-kb array: %.3f  "
              "(the paper measured 0; our MC measured 0)\n\n",
              nominal.expected_failures_16kb);

  // Against naive MC: how many samples would plain Monte Carlo need?
  std::printf("naive MC would need ~%.0f samples for 10 expected hits; "
              "importance sampling used 20000.\n\n",
              10.0 / nominal.estimate.probability);

  // One sweep row: the swept value, then the estimate at it.
  const auto add_row = [](TextTable& table, const std::string& swept,
                          const TailEstimate& e) {
    table.add_row({swept, fmt("%.2f", e.design_radius),
                   fmt("%.2e", e.estimate.probability),
                   fmt("%.3g", e.expected_failures_16kb)});
  };

  // Threshold sweep: the margin requirement is the design lever.
  TextTable t({"required margin [mV]", "design radius [sigma]",
               "P(fail)/bit", "E[fails] in 16 kb"});
  std::vector<double> probs;
  for (const double mv : {6.0, 8.0, 10.0, 11.0}) {
    TailConfig cfg = base;
    cfg.threshold = Volt(mv * 1e-3);
    const TailEstimate e = estimate_margin_tail(cfg, 2, 20000);
    probs.push_back(e.estimate.probability);
    add_row(t, fmt("%.1f", mv), e);
  }
  std::printf("%s\n", t.to_string().c_str());

  // Sigma sweep at the 8 mV threshold.
  TextTable s({"sigma_common", "design radius [sigma]", "P(fail)/bit",
               "E[fails] in 16 kb"});
  std::vector<double> sigma_probs;
  for (const double sigma : {0.04, 0.06, 0.08, 0.10}) {
    TailConfig cfg = base;
    cfg.variation.sigma_common = sigma;
    const TailEstimate e = estimate_margin_tail(cfg, 3, 20000);
    sigma_probs.push_back(e.estimate.probability);
    add_row(s, fmt("%.2f", sigma), e);
  }
  std::printf("%s\n", s.to_string().c_str());

  std::printf("Claims:\n");
  row("tail.expected_below_1",
      "expected 16-kb failures < 1 at the calibrated sigma "
      "(consistent with the paper's zero-failure chip)",
      nominal.expected_failures_16kb < 1.0);
  row("tail.rel_err",
      "importance sampling resolves the tail with <10 % rel err",
      nominal.estimate.relative_error < 0.10);
  row("tail.threshold_monotone",
      "failure probability rises monotonically with the threshold",
      probs[0] < probs[1] && probs[1] < probs[2] && probs[2] < probs[3]);
  row("tail.sigma_monotone",
      "failure probability rises monotonically with sigma",
      sigma_probs[0] < sigma_probs[1] &&
          sigma_probs[1] < sigma_probs[2] &&
          sigma_probs[2] < sigma_probs[3]);
}
