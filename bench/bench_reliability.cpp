// Reliability ablation: retention, read-disturb accumulation per scheme,
// write error rate, and sense margins over temperature.
//
// Quantifies the paper's implicit trades: the nondestructive scheme
// issues two read pulses per access (2x disturb exposure, still
// astronomically safe at I_max = 40 % of I_c) and zero write pulses
// (the destructive scheme's two writes dominate its energy and add a
// write-error failure mode to every read).
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/reliability.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/sim/timing_energy.hpp"

STTRAM_PAPER_SECTION(bench_reliability) {
  heading("Reliability",
          "retention / read disturb / write errors / temperature");

  const auto& [mtj, r_t, config, conv, nondes_nominal] =
      paper_design();
  const SwitchingModel sw(mtj);
  const Second dwell(5e-9);
  const Second ten_years(10 * 365.25 * 86400.0);

  // Retention.
  const RetentionModel retention(mtj);
  std::printf("thermal stability Delta = %.0f -> mean retention %s; "
              "10-year flip probability %.2e\n",
              mtj.thermal_stability,
              format(retention.mean_retention_time()).c_str(),
              retention.flip_probability(ten_years));
  std::printf("Delta required for 1e-9 flips over 10 years: %.1f\n\n",
              RetentionModel::required_stability(ten_years, 1e-9));

  // Read disturb per scheme.
  const DisturbAccumulator acc(sw, Ampere(200e-6), dwell);
  std::printf("per-pulse read disturb at 200 uA / 5 ns: %.2e\n",
              acc.per_pulse());
  TextTable t({"scheme", "read pulses/access", "write pulses/access",
               "accesses to 0.1% disturb budget"});
  // Pulses per access: the scheme's read currents, and the writes its
  // read of a stored 1 issues (erase + write-back when destructive).
  const auto read_pulses = [&](SchemeId id) {
    return scheme_read_currents(id, mtj, r_t, config).size();
  };
  for (const SchemeRow& row : kSchemeTable) {
    if (!row.has_read_flow) continue;
    const double reads = static_cast<double>(read_pulses(row.id));
    const double writes = static_cast<double>(
        scheme_cost(row.id, CostComparisonConfig{}).write_pulses_read1);
    t.add_row({row.label, format_double(reads, 2), format_double(writes, 2),
               fmt("%.3g",
                          accesses_to_disturb_budget(acc, reads, 1e-3))});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Write error rate vs overdrive (only the destructive scheme pays
  // this on every read).
  TextTable wt({"write current [uA]", "WER per pulse",
                "per-read failure (2 pulses)"});
  for (const double i : {500e-6, 600e-6, 700e-6, 800e-6}) {
    const double wer = write_error_rate(sw, Ampere(i), Second(4e-9));
    wt.add_row({fmt("%.0f", i * 1e6), fmt("%.2e", wer),
                fmt("%.2e", 2.0 * wer)});
  }
  std::printf("%s\n", wt.to_string().c_str());

  // Temperature sweep of the sensing margins (beta re-tuned per point,
  // as a real chip's test trim would).
  TextTable tt({"T [K]", "TMR [%]", "beta*", "SM nondes [mV]",
                "SM destructive [mV]", "retention flip/10y"});
  double sm_hot = 0.0, sm_cold = 0.0;
  for (const double kelvin : {250.0, 300.0, 350.0, 400.0}) {
    const MtjParams p = mtj_at_temperature(mtj, kelvin);
    const NondestructiveSelfReference nondes(p, r_t, config);
    const DestructiveSelfReference destructive(p, r_t, config);
    const double beta = nondes.paper_beta();
    const double sm = nondes.margins(beta).min().value();
    if (kelvin == 250.0) sm_cold = sm;
    if (kelvin == 400.0) sm_hot = sm;
    const RetentionModel ret(p);
    const double sm_destr =
        destructive.margins(destructive.paper_beta()).min().value();
    tt.add_row({fmt("%.0f", kelvin),
                fmt("%.1f", LinearRiModel(p).tmr(Ampere(0)) * 100),
                fmt("%.3f", beta), fmt("%.2f", sm * 1e3),
                fmt("%.2f", sm_destr * 1e3),
                fmt("%.1e", ret.flip_probability(ten_years))});
  }
  std::printf("%s\n", tt.to_string().c_str());

  std::printf("Reproduction / extension claims:\n");
  row("reliability.disturb_low",
      "read disturb negligible at I_max = 40 % of I_c (paper)",
      acc.per_pulse() < 1e-6);
  row("reliability.disturb_2x",
      "self-reference disturb exposure is exactly 2x conventional",
      read_pulses(SchemeId::kConventional) == 1 &&
          read_pulses(SchemeId::kDestructive) == 2 &&
          read_pulses(SchemeId::kNondestructive) == 2);
  row("reliability.hot_margins",
      "margins degrade monotonically with temperature", sm_hot < sm_cold);
  row("reliability.works_400k",
      "scheme still operable at 400 K with re-tuned beta", sm_hot > 0.0);
}
