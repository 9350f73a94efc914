// Fig. 10 — Circuit-level transient simulation of the nondestructive
// self-reference read (our MNA engine standing in for the paper's TSMC
// 0.13 um SPICE run), including the leakage of the 127 unselected cells.
#include <cstdio>

#include "paper.hpp"
#include "sttram/common/format.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sim/spice_read.hpp"

using namespace sttram;

namespace {

void plot_waves(const SpiceReadResult& r, double t_stop) {
  AsciiPlot plot("node voltages vs time", "t [ns]", "V", 76, 22);
  PlotSeries bl{"V(BL)", 'B', {}, {}};
  PlotSeries c1{"V(C1) - sampled first read", 'C', {}, {}};
  PlotSeries bo{"V_BO - divider output", 'D', {}, {}};
  for (double t = 0.0; t <= t_stop; t += t_stop / 150.0) {
    bench::add_point(bl, t * 1e9, r.waves.voltage_at(r.n_bl, t));
    bench::add_point(c1, t * 1e9, r.waves.voltage_at(r.n_c1, t));
    bench::add_point(bo, t * 1e9, r.waves.voltage_at(r.n_bo, t));
  }
  plot.add_series(bl);
  plot.add_series(c1);
  plot.add_series(bo);
  std::printf("%s\n", plot.render().c_str());
}

}  // namespace

STTRAM_PAPER_SECTION(bench_fig10_transient) {
  heading("Fig. 10", "transient simulation of the nondestructive read");

  SpiceReadConfig cfg;  // 127 leaking unselected cells included
  SpiceReadResult r_ap, r_p;
  for (const MtjState state :
       {MtjState::kAntiParallel, MtjState::kParallel}) {
    cfg.state = state;
    const SpiceReadResult r = simulate_nondestructive_read(cfg);
    std::printf("stored %s:  V(C1)=%s  V_BO=%s  ->  sensed %d, margin %s\n",
                to_string(state).data(), format(r.v_c1).c_str(),
                format(r.v_bo).c_str(), r.value, format(r.margin).c_str());
    std::printf("  first-read settle %s, second-read settle %s, decision at "
                "%s\n",
                format(r.settle_read1).c_str(),
                format(r.settle_read2).c_str(),
                format(r.decision_time).c_str());
    if (state == MtjState::kAntiParallel) {
      plot_waves(r, cfg.t_stop);
      r_ap = std::move(r);
    } else {
      r_p = std::move(r);
    }
  }

  // Contrast: the destructive flow at circuit level (Fig. 3 netlist with
  // erase + conditional write-back pulses and WL boost).
  std::printf("[contrast] destructive self-reference at circuit level:\n");
  DestructiveSpiceConfig dcfg;
  dcfg.state = MtjState::kAntiParallel;
  const DestructiveSpiceResult rd = simulate_destructive_read(dcfg);
  std::printf("  stored AP: V(C1)=%s V(C2)=%s -> sensed %d, margin %s, "
              "restored=%d, completes at %s\n\n",
              format(rd.v_c1).c_str(), format(rd.v_c2).c_str(), rd.value,
              format(rd.margin).c_str(), rd.data_restored,
              format(rd.completion_time).c_str());

  std::printf("Paper-vs-measured:\n");
  row("fig10.destructive_slower",
      "destructive circuit read is much slower (2 writes)",
      rd.completion_time.value() > 1.5 * r_ap.decision_time.value());
  row("fig10.destructive_margin",
      "destructive circuit margin matches analytic ~65 mV",
      rd.margin.value() > 40e-3);
  row("fig10.decisions", "stored 1 sensed as 1 and stored 0 sensed as 0",
      r_ap.value && !r_p.value);
  row("fig10.margins_8mv", "margins exceed the 8 mV auto-zero requirement",
      r_ap.margin.value() > 8e-3 && r_p.margin.value() > 8e-3);
  row("fig10.read2_faster",
      "second read settles faster than the first (no extra C)",
      r_ap.settle_read2 < r_ap.settle_read1);
  // Leakage sensitivity: quadruple leakage, decision unchanged.
  SpiceReadConfig leaky = cfg;
  leaky.state = MtjState::kAntiParallel;
  leaky.r_off_per_cell /= 4.0;
  const SpiceReadResult rl = simulate_nondestructive_read(leaky);
  row("fig10.leakage_4x",
      "4x unselected-cell leakage does not flip the decision", rl.value);
}
