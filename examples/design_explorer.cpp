// Example: design-space exploration for a custom MTJ device.
//
// A designer with a different junction (say, a lower-TMR stack or a
// different roll-off) wants the scheme parameters for *their* device:
// the optimal read-current ratio, the sense margins, and the mismatch
// budgets.  This example takes the device corner from the command line
// and prints a design card.
//
// Usage: design_explorer [r_low] [r_high] [droop_high] [i_max_uA]
//   defaults: 1220 2500 600 200  (the paper's device); an argument that
//   is not one finite number exits 2.
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "sttram/common/error.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/token.hpp"
#include "sttram/device/switching.hpp"
#include "sttram/sense/design.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

namespace {

/// `token` as a number; anything but one finite number exits 2, naming
/// the argument.
double number_arg(const char* token, const char* name) {
  const std::optional<double> v = parse_number(token);
  if (!v) {
    std::fprintf(stderr, "design_explorer: %s must be a number, got '%s'\n",
                 name, token);
    std::exit(2);
  }
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  MtjParams mtj = MtjParams::paper_calibrated();
  if (argc > 1) mtj.r_low0 = Ohm(number_arg(argv[1], "r_low"));
  if (argc > 2) mtj.r_high0 = Ohm(number_arg(argv[2], "r_high"));
  if (argc > 3) mtj.droop_high = Ohm(number_arg(argv[3], "droop_high"));
  SelfRefConfig config;
  if (argc > 4) config.i_max = Ampere(number_arg(argv[4], "i_max_uA") * 1e-6);

  const Ohm r_t(917.0);
  const LinearRiModel model(mtj);
  std::printf("device: R_L=%s R_H=%s dR_Hmax=%s dR_Lmax=%s TMR=%s "
              "I_max=%s\n\n",
              format(mtj.r_low0).c_str(), format(mtj.r_high0).c_str(),
              format(mtj.droop_high).c_str(), format(mtj.droop_low).c_str(),
              format_percent(model.tmr(Ampere(0))).c_str(),
              format(config.i_max).c_str());

  // Read-disturb check: is I_max safe for this junction?
  const SwitchingModel switching(mtj);
  const double disturb =
      switching.read_disturb_probability(config.i_max, Second(5e-9));
  std::printf("read disturb probability over a 5 ns read: %.2e %s\n\n",
              disturb, disturb < 1e-9 ? "(safe)" : "(TOO HIGH: lower I_max)");

  const auto card = [&](const SelfReferenceScheme& s, double beta,
                        const char* name) {
    const SenseMargins m = s.margins(beta);
    const Window wb = beta_window(s);
    const Window wr = delta_r_window(s, beta);
    TextTable t({"parameter", "value"});
    t.add_row({"designed beta", format_double(beta, 4)});
    t.add_row({"SM0 / SM1", format(m.sm0) + " / " + format(m.sm1)});
    t.add_row({"valid beta range",
               wb.valid ? format_double(wb.lo, 4) + " .. " +
                              format_double(wb.hi, 4)
                        : "NONE (scheme inoperable)"});
    t.add_row({"dR_T budget",
               wr.valid ? format_double(wr.lo, 4) + " .. " +
                              format_double(wr.hi, 4) + " Ohm"
                        : "NONE"});
    std::printf("%s design card:\n%s\n", name, t.to_string().c_str());
  };

  const DestructiveSelfReference destructive(mtj, r_t, config);
  const NondestructiveSelfReference nondestructive(mtj, r_t, config);
  try {
    card(destructive, destructive.paper_beta(),
         "destructive self-reference");
  } catch (const Error& e) {
    std::printf("destructive scheme: not designable (%s)\n\n", e.what());
  }
  try {
    const double beta = nondestructive.paper_beta();
    card(nondestructive, beta, "nondestructive self-reference");
    const Window da = nondestructive.alpha_deviation_window(beta);
    if (da.valid) {
      std::printf("divider ratio budget: %s .. %s\n",
                  format_percent(da.lo).c_str(),
                  format_percent(da.hi).c_str());
    }
  } catch (const Error& e) {
    std::printf("nondestructive scheme: not designable for this device "
                "(%s)\n",
                e.what());
    std::printf("hint: the scheme needs a steep high-state roll-off "
                "(large dR_Hmax); see the paper's Eq. (16)-(17).\n");
  }

  // Fully automatic design: disturb-limited I_max + Eq. (10) + budget
  // checks in one call.
  std::printf("\nautomatic design (1e-9 disturb budget, 8 mV amp):\n");
  const SchemeDesign d =
      design_nondestructive_read(mtj, r_t, DesignConstraints{});
  std::printf("  %s: I_max=%s beta=%.3f SM=%s disturb=%.1e\n",
              d.feasible ? "FEASIBLE" : "INFEASIBLE",
              format(d.i_max).c_str(), d.beta,
              format(d.margins.min()).c_str(), d.read_disturb);
  for (const auto& note : d.notes) {
    std::printf("    - %s\n", note.c_str());
  }
  return 0;
}
