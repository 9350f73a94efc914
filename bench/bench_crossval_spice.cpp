// Cross-validation: the analytic sense-margin engine vs the MNA
// circuit simulation, across process-varied device instances.
//
// The yield experiment (Fig. 11) trusts the analytic margins for 16384
// cells; this bench justifies that by running the full circuit-level
// read on a sample of varied devices and comparing margins bit by bit.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/device/variation.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/stats/rng.hpp"
#include "sttram/stats/summary.hpp"

using namespace sttram;

int main() {
  bench::heading("Cross-validation",
                 "analytic margins vs MNA circuit simulation");

  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams{});
  const Xoshiro256 master(2010);

  TextTable t({"device", "state", "analytic+sampling SM [mV]", "circuit SM [mV]",
               "delta [mV]", "decision"});
  std::vector<double> analytic, circuit;
  bool all_correct = true;
  constexpr int kDevices = 8;
  for (int d = 0; d < kDevices; ++d) {
    Xoshiro256 stream = master.fork(static_cast<std::size_t>(d));
    const MtjParams params =
        d == 0 ? MtjParams::paper_calibrated() : variation.sample(stream);
    for (const MtjState state :
         {MtjState::kAntiParallel, MtjState::kParallel}) {
      SpiceReadConfig cfg;
      cfg.mtj = params;
      cfg.state = state;
      const SenseMargins m = analytic_margins_for_circuit(cfg);
      const double sm_analytic =
          (state == MtjState::kAntiParallel ? m.sm1 : m.sm0).value();
      const SpiceReadResult r = simulate_nondestructive_read(cfg);
      const double sm_circuit =
          (r.value == (state == MtjState::kAntiParallel))
              ? r.margin.value()
              : -r.margin.value();
      all_correct &= r.value == (state == MtjState::kAntiParallel);
      analytic.push_back(sm_analytic);
      circuit.push_back(sm_circuit);
      char a[16], b[16], c[16];
      std::snprintf(a, sizeof(a), "%.2f", sm_analytic * 1e3);
      std::snprintf(b, sizeof(b), "%.2f", sm_circuit * 1e3);
      std::snprintf(c, sizeof(c), "%+.2f",
                    (sm_circuit - sm_analytic) * 1e3);
      t.add_row({d == 0 ? "nominal" : "sampled #" + std::to_string(d),
                 std::string(to_string(state)), a, b, c,
                 r.value ? "1" : "0"});
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  const double corr = pearson_correlation(analytic, circuit);
  double max_abs_delta = 0.0;
  for (std::size_t k = 0; k < analytic.size(); ++k) {
    max_abs_delta =
        std::max(max_abs_delta, std::fabs(circuit[k] - analytic[k]));
  }
  std::printf("correlation(analytic, circuit) = %.4f; max |delta| = "
              "%.2f mV\n\n",
              corr, max_abs_delta * 1e3);

  std::printf("Cross-validation claims:\n");
  bench::claim("every circuit-level decision matches the stored value",
               all_correct);
  bench::claim("analytic and circuit margins strongly correlated (>0.9)",
               corr > 0.9);
  bench::claim("max analytic-vs-circuit deviation below 3 mV",
               max_abs_delta < 3e-3);
  return bench::exit_code();
}
