// Fig. 11 — 16-kb test-chip measurement: per-bit sense margins (SM0 vs
// SM1 scatter) for conventional sensing, the destructive self-reference
// scheme and the nondestructive self-reference scheme, against the 8 mV
// auto-zero sense-amp requirement.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/yield.hpp"

using namespace sttram;

namespace {

void scatter_plot(const SchemeYield& y, double required_mv) {
  AsciiPlot plot(y.scheme + " — per-bit sense margins",
                 "SM for '0' [mV]", "SM1 [mV]", 64, 20);
  PlotSeries pts{"one point per sampled bit", '.', {}, {}};
  for (const auto& [sm0, sm1] : y.scatter) {
    pts.xs.push_back(sm0 * 1e3);
    pts.ys.push_back(sm1 * 1e3);
  }
  plot.add_series(pts);
  plot.add_hline(required_mv);
  plot.add_vline(required_mv);
  std::printf("%s\n", plot.render().c_str());
}

}  // namespace

int main() {
  bench::heading("Fig. 11",
                 "sense margins of all sensing schemes on the 16-kb array");

  YieldConfig cfg;  // 128x128 = 16384 bits, calibrated variation
  cfg.max_scatter_points = 2048;
  const YieldResult r = run_yield_experiment(cfg);

  std::printf("designed betas: destructive %.3f, nondestructive %.3f\n",
              r.beta_destructive, r.beta_nondestructive);
  std::printf("shared V_REF = %.1f mV; shared-reference window across the "
              "array = %.2f mV %s\n\n",
              r.shared_v_ref.value() * 1e3,
              r.shared_reference_window.value() * 1e3,
              r.shared_reference_window.value() < 0.0
                  ? "(NEGATIVE: no valid shared reference exists, Eq. 2 "
                    "violated)"
                  : "");

  TextTable t({"scheme", "bits", "failures", "rate", "SM0 mean [mV]",
               "SM0 min [mV]", "SM1 mean [mV]", "SM1 min [mV]"});
  for (const SchemeRow& row : kSchemeTable) {
    const SchemeYield& y = r.scheme(row.id);
    char rate[16], m0[16], mn0[16], m1[16], mn1[16];
    std::snprintf(rate, sizeof(rate), "%.3f %%", y.failure_rate() * 100.0);
    std::snprintf(m0, sizeof(m0), "%.2f", y.sm0_stats.mean() * 1e3);
    std::snprintf(mn0, sizeof(mn0), "%.2f", y.sm0_stats.min() * 1e3);
    std::snprintf(m1, sizeof(m1), "%.2f", y.sm1_stats.mean() * 1e3);
    std::snprintf(mn1, sizeof(mn1), "%.2f", y.sm1_stats.min() * 1e3);
    t.add_row({y.scheme, std::to_string(y.bits),
               std::to_string(y.failures), rate, m0, mn0, m1, mn1});
  }
  std::printf("%s\n", t.to_string().c_str());

  const double req_mv = cfg.required_margin.value() * 1e3;
  scatter_plot(r.conventional, req_mv);
  scatter_plot(r.destructive, req_mv);
  scatter_plot(r.nondestructive, req_mv);

  // Variation sweep: how the failure rates scale with sigma(common).
  std::printf("variation sweep (failure rates vs sigma_common):\n");
  YieldConfig sweep_cfg = cfg;
  sweep_cfg.geometry = {64, 64};
  sweep_cfg.max_scatter_points = 1;
  TextTable sw({"sigma_common", "conventional", "destructive",
                "nondestructive"});
  for (const auto& p :
       sweep_variation(sweep_cfg, {0.02, 0.04, 0.07, 0.10, 0.14})) {
    char s[16], a[16], b[16], c[16];
    std::snprintf(s, sizeof(s), "%.2f", p.sigma_common);
    const auto rate = [&](SchemeId id) {
      return p.failure_rate[scheme_index(id)] * 100.0;
    };
    std::snprintf(a, sizeof(a), "%.2f %%", rate(SchemeId::kConventional));
    std::snprintf(b, sizeof(b), "%.2f %%", rate(SchemeId::kDestructive));
    std::snprintf(c, sizeof(c), "%.2f %%", rate(SchemeId::kNondestructive));
    sw.add_row({s, a, b, c});
  }
  std::printf("%s\n", sw.to_string().c_str());

  std::printf("Paper-vs-measured:\n");
  bench::compare("conventional failure rate (~1 %% of bits)", 1.0,
                 r.conventional.failure_rate() * 100.0, "%");
  bench::compare("destructive self-ref failures", 0.0,
                 static_cast<double>(r.destructive.failures), "bits");
  bench::compare("nondestructive self-ref failures", 0.0,
                 static_cast<double>(r.nondestructive.failures), "bits");
  bench::claim("both self-reference schemes sense every measured bit",
               r.destructive.failures == 0 &&
                   r.nondestructive.failures == 0);
  bench::claim("conventional margins spread across the fail line",
               r.conventional.sm0_stats.min() <
                   cfg.required_margin.value() ||
                   r.conventional.sm1_stats.min() <
                       cfg.required_margin.value());
  bench::claim("self-ref margins immune to bit-to-bit R variation "
               "(cv(SM) << cv for conventional)",
               r.nondestructive.sm1_stats.cv() <
                   r.conventional.sm1_stats.cv());
  return bench::exit_code();
}
