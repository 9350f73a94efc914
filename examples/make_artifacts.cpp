// Example: regenerate every figure's raw data as CSV/JSON/VCD artifacts
// for external plotting — the reproducibility companion to the benches'
// terminal output.
//
// Usage: make_artifacts [output_dir]     (default ./artifacts)
//
// Writes:
//   fig2_ri_curve.csv       R_H/R_L vs sensing current, both models
//   fig6_beta_sweep.csv     SM0/SM1 vs beta, both schemes
//   fig7_deltaR_sweep.csv   SM vs dR
//   fig8_alpha_sweep.csv    SM vs d-alpha
//   fig10_waves.vcd         circuit-level read waveforms (GTKWave)
//   fig11_scatter.csv       per-bit margins for all four schemes
//   table1.json             device + scheme parameters
//   table2.json             robustness windows
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "sttram/common/numeric.hpp"
#include "sttram/io/csv.hpp"
#include "sttram/io/json.hpp"
#include "sttram/io/vcd.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/sim/yield.hpp"

using namespace sttram;

namespace {

std::ofstream open_out(const std::filesystem::path& dir,
                       const std::string& name) {
  std::ofstream out(dir / name);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", (dir / name).string().c_str());
    std::exit(1);
  }
  std::printf("  writing %s\n", (dir / name).string().c_str());
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "artifacts";
  std::filesystem::create_directories(dir);
  std::printf("generating artifacts into %s\n", dir.string().c_str());

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const LinearRiModel linear(mtj);
  const SimmonsRiModel simmons = SimmonsRiModel::calibrated_to(mtj);
  const DestructiveSelfReference destr(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);

  {  // Fig. 2
    auto out = open_out(dir, "fig2_ri_curve.csv");
    CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{
        "i_amps", "r_high_linear", "r_low_linear", "r_high_simmons",
        "r_low_simmons"});
    for (const double frac : linspace(0.0, 1.0, 100)) {
      const Ampere i = config.i_max * frac;
      csv.write_row(std::vector<double>{
          i.value(),
          linear.resistance(MtjState::kAntiParallel, i).value(),
          linear.resistance(MtjState::kParallel, i).value(),
          simmons.resistance(MtjState::kAntiParallel, i).value(),
          simmons.resistance(MtjState::kParallel, i).value()});
    }
  }

  {  // Fig. 6
    auto out = open_out(dir, "fig6_beta_sweep.csv");
    CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"beta", "sm0_conv", "sm1_conv",
                                           "sm0_nondes", "sm1_nondes"});
    for (const double beta : linspace(1.02, 3.6, 200)) {
      const SenseMargins mc = destr.margins(beta);
      const SenseMargins mn = nondes.margins(beta);
      csv.write_row(std::vector<double>{beta, mc.sm0.value(),
                                        mc.sm1.value(), mn.sm0.value(),
                                        mn.sm1.value()});
    }
  }

  {  // Fig. 7
    auto out = open_out(dir, "fig7_deltaR_sweep.csv");
    CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"delta_r_ohm", "sm0_conv",
                                           "sm1_conv", "sm0_nondes",
                                           "sm1_nondes"});
    for (const double dr : linspace(-600.0, 600.0, 200)) {
      SchemeMismatch mm;
      mm.delta_r_t = Ohm(dr);
      const SenseMargins mc = destr.margins(1.22, mm);
      const SenseMargins mn = nondes.margins(2.13, mm);
      csv.write_row(std::vector<double>{dr, mc.sm0.value(), mc.sm1.value(),
                                        mn.sm0.value(), mn.sm1.value()});
    }
  }

  {  // Fig. 8
    auto out = open_out(dir, "fig8_alpha_sweep.csv");
    CsvWriter csv(out);
    csv.write_row(
        std::vector<std::string>{"alpha_dev", "sm0_nondes", "sm1_nondes"});
    for (const double dev : linspace(-0.08, 0.06, 200)) {
      SchemeMismatch mm;
      mm.alpha_deviation = dev;
      const SenseMargins m = nondes.margins(2.13, mm);
      csv.write_row(
          std::vector<double>{dev, m.sm0.value(), m.sm1.value()});
    }
  }

  {  // Fig. 10 waveforms
    SpiceReadConfig cfg;
    cfg.state = MtjState::kAntiParallel;
    const SpiceReadResult r = simulate_nondestructive_read(cfg);
    auto out = open_out(dir, "fig10_waves.vcd");
    VcdRealSignal bl{"v_bl", {}}, c1{"v_c1", {}}, bo{"v_bo", {}};
    for (std::size_t k = 0; k < r.waves.sample_count(); ++k) {
      bl.values.push_back(r.waves.voltage(r.n_bl, k));
      c1.values.push_back(r.waves.voltage(r.n_c1, k));
      bo.values.push_back(r.waves.voltage(r.n_bo, k));
    }
    VcdWriter("fig10").write(out, r.waves.times(), {bl, c1, bo});
  }

  YieldResult yield_result;
  {  // Fig. 11 scatter
    YieldConfig cfg;
    cfg.max_scatter_points = 4096;
    yield_result = run_yield_experiment(cfg);
    auto out = open_out(dir, "fig11_scatter.csv");
    CsvWriter csv(out);
    csv.write_row(
        std::vector<std::string>{"scheme", "sm0_volts", "sm1_volts"});
    for (const SchemeRow& row : kSchemeTable) {
      const SchemeYield& y = yield_result.scheme(row.id);
      for (const auto& [sm0, sm1] : y.scatter) {
        out << y.scheme << ',';
        csv.write_row(std::vector<double>{sm0, sm1});
      }
    }
  }

  {  // Table I
    Json t = Json::object();
    Json dev = Json::object();
    dev.set("r_high0_ohm", Json::number(mtj.r_high0.value()));
    dev.set("r_low0_ohm", Json::number(mtj.r_low0.value()));
    dev.set("droop_high_ohm", Json::number(mtj.droop_high.value()));
    dev.set("droop_low_ohm", Json::number(mtj.droop_low.value()));
    dev.set("r_access_ohm", Json::number(r_t.value()));
    dev.set("i_max_amps", Json::number(config.i_max.value()));
    dev.set("tmr", Json::number(mtj.tmr0()));
    t.set("device", std::move(dev));
    const auto scheme_json = [&](const SelfReferenceScheme& s,
                                 double beta) {
      Json j = Json::object();
      j.set("beta", Json::number(beta));
      const SenseMargins m = s.margins(beta);
      j.set("sm0_volts", Json::number(m.sm0.value()));
      j.set("sm1_volts", Json::number(m.sm1.value()));
      return j;
    };
    t.set("conventional_self_reference",
          scheme_json(destr, destr.paper_beta()));
    t.set("nondestructive_self_reference",
          scheme_json(nondes, nondes.paper_beta()));
    auto out = open_out(dir, "table1.json");
    out << t.dump(2) << '\n';
  }

  {  // Table II
    Json t = Json::object();
    const auto window_json = [](const Window& w) {
      Json j = Json::object();
      j.set("valid", Json::boolean(w.valid));
      if (w.valid) {
        j.set("lo", Json::number(w.lo));
        j.set("hi", Json::number(w.hi));
      }
      return j;
    };
    const RobustnessSummary rc = analyze_robustness(destr, 1.22);
    const RobustnessSummary rn = analyze_robustness(nondes, 2.13);
    Json conv = Json::object();
    conv.set("beta_window", window_json(rc.beta));
    conv.set("delta_r_window_ohm", window_json(rc.delta_r));
    t.set("conventional", std::move(conv));
    Json nd = Json::object();
    nd.set("beta_window", window_json(rn.beta));
    nd.set("delta_r_window_ohm", window_json(rn.delta_r));
    nd.set("alpha_window", window_json(rn.alpha_dev));
    t.set("nondestructive", std::move(nd));
    auto out = open_out(dir, "table2.json");
    out << t.dump(2) << '\n';
  }

  std::printf("done.\n");
  return 0;
}
