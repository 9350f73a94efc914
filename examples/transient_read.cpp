// Example: circuit-level transient of the nondestructive read with CSV
// and VCD waveform export.
//
// Usage: transient_read [state 0|1] [out_path]
//   Runs the Fig. 5 netlist (MTJ + access NMOS + SLT switches + divider
//   + 127 leaking unselected cells) through the MNA transient engine.
//   The stored state defaults to 1 (anti-parallel); any other token than
//   0 or 1 exits 2.  An out_path ending in .vcd produces a
//   GTKWave-compatible dump; anything else produces time,V(BL),V(C1),V_BO
//   CSV rows.
#include <cstdio>
#include <fstream>
#include <string>

#include "sttram/common/format.hpp"
#include "sttram/common/token.hpp"
#include "sttram/io/csv.hpp"
#include "sttram/io/vcd.hpp"
#include "sttram/sim/spice_read.hpp"

using namespace sttram;

int main(int argc, char** argv) {
  SpiceReadConfig cfg;
  if (argc > 1) {
    const auto state = parse_integer(argv[1]);
    if (!state || (*state != 0 && *state != 1)) {
      std::fprintf(stderr,
                   "transient_read: state must be 0 or 1, got '%s'\n",
                   argv[1]);
      return 2;
    }
    cfg.state = *state == 0 ? MtjState::kParallel : MtjState::kAntiParallel;
  }

  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  std::printf("stored %s -> sensed %d, margin %s, decision at %s\n",
              to_string(cfg.state).data(), r.value,
              format(r.margin).c_str(), format(r.decision_time).c_str());
  std::printf("V(C1) = %s, V_BO = %s\n", format(r.v_c1).c_str(),
              format(r.v_bo).c_str());
  std::printf("settle: first read %s, second read %s\n",
              format(r.settle_read1).c_str(),
              format(r.settle_read2).c_str());

  if (argc > 2) {
    const std::string path = argv[2];
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    if (path.size() > 4 && path.substr(path.size() - 4) == ".vcd") {
      VcdRealSignal bl{"v_bl", {}}, c1{"v_c1", {}}, bo{"v_bo", {}};
      for (std::size_t k = 0; k < r.waves.sample_count(); ++k) {
        bl.values.push_back(r.waves.voltage(r.n_bl, k));
        c1.values.push_back(r.waves.voltage(r.n_c1, k));
        bo.values.push_back(r.waves.voltage(r.n_bo, k));
      }
      VcdWriter("sttram_read").write(out, r.waves.times(), {bl, c1, bo});
      std::printf("wrote VCD with %zu samples to %s (open in GTKWave)\n",
                  r.waves.sample_count(), path.c_str());
    } else {
      CsvWriter csv(out);
      csv.write_row(
          std::vector<std::string>{"t_ns", "v_bl", "v_c1", "v_bo"});
      for (std::size_t k = 0; k < r.waves.sample_count(); ++k) {
        csv.write_row(std::vector<double>{r.waves.time(k) * 1e9,
                                          r.waves.voltage(r.n_bl, k),
                                          r.waves.voltage(r.n_c1, k),
                                          r.waves.voltage(r.n_bo, k)});
      }
      std::printf("wrote %zu waveform rows to %s\n", csv.rows_written(),
                  path.c_str());
    }
  } else {
    std::printf("(pass a .csv or .vcd path as the 2nd argument to export "
                "waveforms)\n");
  }
  return 0;
}
