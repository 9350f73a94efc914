// sttram_cli — one entry point over the whole library.
//
//   sttram_cli margins [beta]         scheme margins on the calibrated device
//   sttram_cli design                 automatic nondestructive-read design
//   sttram_cli robustness             Table II windows for both schemes
//   sttram_cli yield [rows cols sig]  array yield summary (4 schemes)
//   sttram_cli tail [margin_mv]       importance-sampled failure tail
//   sttram_cli read [0|1]             execute a read + Fig. 9 timing diagram
//   sttram_cli transient [0|1]        circuit-level (MNA) read summary
//   sttram_cli traffic [flags]        discrete-event bank traffic simulation
//   sttram_cli fault [flags]          inject faults, march, report coverage
//   sttram_cli campaign <verb> ...    declarative scenario campaigns (run,
//                                     list, expand, verify)
//   sttram_cli stats                  telemetry snapshot of a demo workload
//
// Run `sttram_cli --help` for the full command and flag reference (the
// same text is printed for -h, --help and the help command).
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sttram/common/format.hpp"
#include "sttram/common/simd.hpp"
#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/fault/fault.hpp"
#include "sttram/engine/thread_pool.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/io/json.hpp"
#include "sttram/io/table.hpp"
#include "sttram/obs/obs.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/sense/design.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/timing_diagram.hpp"
#include "sttram/sim/yield.hpp"

using namespace sttram;

namespace {

/// Shared executor from the global --threads flag (null = serial).
ParallelExecutor* g_executor = nullptr;

/// The one help text: printed verbatim for -h, --help and `help`, and
/// checked by tests/cli_help_test.sh against every flag the parsers
/// accept and by tools/check_docs.sh against the README CLI reference.
void print_help() {
  std::printf(
      "sttram_cli - one entry point over the STT-RAM library\n"
      "\n"
      "usage: sttram_cli [global flags] <command> [args]\n"
      "\n"
      "Commands:\n"
      "  margins [beta]           scheme sense margins on the calibrated "
      "device\n"
      "  design                   automatic nondestructive-read design\n"
      "  robustness               Table II deviation windows for both "
      "schemes\n"
      "  yield [rows cols sigma]  array yield across the four schemes\n"
      "                             --json             machine-readable "
      "output\n"
      "                             --faults <density> overlay a fault "
      "campaign,\n"
      "                                                report raw vs "
      "post-ECC BER\n"
      "                             --ecc              SECDED(72,64) over "
      "each word\n"
      "                             --retry <n>        read attempts "
      "(default 1)\n"
      "  tail [margin_mv]         importance-sampled failure-tail "
      "estimate\n"
      "  read [0|1]               execute one read + Fig. 9 timing "
      "diagram\n"
      "  transient [0|1]          circuit-level (MNA) read summary\n"
      "  traffic [flags]          discrete-event bank traffic simulation\n"
      "                             --scheme <conventional|destructive|"
      "nondestructive>\n"
      "                             --requests <n>     request count\n"
      "                             --banks <n>        bank count\n"
      "                             --policy <fcfs|read-priority>\n"
      "                             --workload <poisson|closed|trace>\n"
      "                             --rho <f>          per-bank offered "
      "load\n"
      "                             --read-fraction <f>\n"
      "                             --clients <n>      closed-loop "
      "population\n"
      "                             --think-ns <f>     closed-loop think "
      "time\n"
      "                             --seed <n>         workload seed\n"
      "                             --word-bits <n>    bits per access\n"
      "                             --trace-file <csv> replay a request "
      "trace\n"
      "                             --faults <ber>     per-bit read error "
      "rate\n"
      "                             --ecc              SECDED + retry "
      "recovery\n"
      "                             --retry <n>        max read attempts "
      "(default 3)\n"
      "                           chip-scale controller mode (channels x "
      "ranks x\n"
      "                           banks, command-level FR-FCFS "
      "scheduling):\n"
      "                             --controller       enable controller "
      "mode\n"
      "                             --channels <n>     channel count "
      "(default 4)\n"
      "                             --ranks <n>        ranks per channel "
      "(default 2)\n"
      "                             --banks <n>        banks per rank "
      "(default 8)\n"
      "                             --rows <n>         rows per bank "
      "(default 64)\n"
      "                             --row-locality <f> P(reuse last row) "
      "(default 0.6)\n"
      "                             --scheduler <fcfs|frfcfs>\n"
      "                             --starvation-cap <n> FR-FCFS aging "
      "cap (default 8)\n"
      "                             --no-coalesce      disable read "
      "coalescing\n"
      "  fault [flags]            inject a fault map, run March C- with "
      "every\n"
      "                           scheme, report per-class detection "
      "coverage\n"
      "                             --seed <n>         fault-map seed "
      "(default 1)\n"
      "                             --rows <n>         array rows "
      "(default 64)\n"
      "                             --cols <n>         array columns "
      "(default 64)\n"
      "                             --density <f>      total fault "
      "density (default 0.01)\n"
      "                             --json             machine-readable "
      "output\n"
      "  campaign <verb> <file>   declarative scenario campaigns "
      "(DESIGN.md\n"
      "                           section 12); verbs:\n"
      "                             run <file>         expand + execute, "
      "print or\n"
      "                                                write the report\n"
      "                               --out <report>   write the campaign "
      "report JSON\n"
      "                               --json           print the report "
      "as JSON\n"
      "                             list               registered "
      "experiment kinds\n"
      "                                                and their "
      "parameter schemas\n"
      "                             expand <file>      print the expanded "
      "scenario\n"
      "                                                instances without "
      "running\n"
      "                               --json           machine-readable "
      "output\n"
      "                             verify <file>      re-run and diff "
      "against a\n"
      "                                                committed golden "
      "report\n"
      "                               --golden <report> golden report to "
      "diff against\n"
      "  stats                    telemetry snapshot of a demo workload:\n"
      "                           counters, timers, latency-histogram\n"
      "                           percentiles and the phase profile\n"
      "  help                     print this help (same as -h / --help)\n"
      "\n"
      "Global flags (before or after the command):\n"
      "  --metrics <file>   enable telemetry + phase profiling; dump the\n"
      "                     registry (histogram percentiles, profile "
      "included)\n"
      "                     as JSON\n"
      "  --trace <file>     record scoped spans; dump chrome://tracing "
      "JSON\n"
      "  --threads <n>      thread pool for the Monte-Carlo drivers "
      "(default 1;\n"
      "                     results are bit-identical for any thread "
      "count)\n"
      "  --simd <isa>       SIMD ISA for the batched MC kernels: auto "
      "(default,\n"
      "                     autodetect), scalar, sse2, avx2, avx512, "
      "neon;\n"
      "                     results are bit-identical for every ISA "
      "(overrides\n"
      "                     the STTRAM_SIMD environment variable)\n");
}

/// Rejects any "--flag" token the subcommand does not understand.
/// `allowed` is a null-terminated list of accepted flag spellings.
bool reject_unknown_flags(int argc, char** argv,
                          const char* const* allowed = nullptr) {
  for (int k = 2; k < argc; ++k) {
    if (std::strncmp(argv[k], "--", 2) != 0) continue;
    bool known = false;
    for (const char* const* f = allowed; f != nullptr && *f != nullptr; ++f) {
      if (std::strcmp(argv[k], *f) == 0) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown flag '%s' for '%s'\n", argv[k],
                   argv[1]);
      return false;
    }
  }
  return true;
}

/// Strict number argument: the whole token must parse to a finite value
/// >= `min`.  Otherwise prints an error naming `what` and returns false
/// (a usage error: the caller exits 2).
bool parse_number(const char* what, const char* text, double min,
                  double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(v) || v < min) {
    std::fprintf(stderr, "error: %s wants a finite number >= %g, got '%s'\n",
                 what, min, text);
    return false;
  }
  *out = v;
  return true;
}

/// Strict integer argument: the whole token is a base-10 integer >= `min`.
bool parse_integer(const char* what, const char* text, long min, long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < min) {
    std::fprintf(stderr, "error: %s wants an integer >= %ld, got '%s'\n",
                 what, min, text);
    return false;
  }
  *out = v;
  return true;
}

int cmd_margins(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  const DestructiveSelfReference destr(mtj, r_t, config);
  const double beta = argc > 2 ? std::atof(argv[2]) : nondes.paper_beta();
  const ConventionalSensing conv(mtj, r_t, config.i_max);
  const ReferenceCellSensing refcell(mtj, mtj, r_t, config.i_max);

  TextTable t({"scheme", "SM0", "SM1", "writes/read"});
  const SenseMargins mc = conv.margins(conv.midpoint_reference());
  t.add_row({"conventional (fixed V_REF)", format(mc.sm0), format(mc.sm1),
             "0"});
  const SenseMargins mr = refcell.margins();
  t.add_row({"reference-cell", format(mr.sm0), format(mr.sm1), "0"});
  const SenseMargins md = destr.margins(destr.paper_beta());
  t.add_row({"destructive self-ref (beta=" +
                 format_double(destr.paper_beta(), 3) + ")",
             format(md.sm0), format(md.sm1), "2"});
  const SenseMargins mn = nondes.margins(beta);
  t.add_row({"nondestructive self-ref (beta=" + format_double(beta, 4) +
                 ")",
             format(mn.sm0), format(mn.sm1), "0"});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_design(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  const SchemeDesign d = design_nondestructive_read(
      MtjParams::paper_calibrated(), Ohm(917.0), DesignConstraints{});
  std::printf("%s\n", d.feasible ? "FEASIBLE" : "INFEASIBLE");
  std::printf("  I_max  = %s (disturb %.2e per read)\n",
              format(d.i_max).c_str(), d.read_disturb);
  std::printf("  beta   = %.4f\n", d.beta);
  std::printf("  SM     = %s / %s\n", format(d.margins.sm0).c_str(),
              format(d.margins.sm1).c_str());
  for (const auto& note : d.notes) std::printf("  - %s\n", note.c_str());
  return d.feasible ? 0 : 1;
}

int cmd_robustness(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const DestructiveSelfReference destr(mtj, r_t, config);
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  TextTable t({"quantity", "conventional", "nondestructive"});
  const RobustnessSummary rc = analyze_robustness(destr, 1.22);
  const RobustnessSummary rn = analyze_robustness(nondes, 2.13);
  const auto fmt = [](const Window& w, double scale, const char* unit) {
    if (!w.valid) return std::string("N/A");
    return format_double(w.lo * scale, 4) + " .. " +
           format_double(w.hi * scale, 4) + " " + unit;
  };
  t.add_row({"valid beta", fmt(rc.beta, 1.0, ""), fmt(rn.beta, 1.0, "")});
  t.add_row({"dR window", fmt(rc.delta_r, 1.0, "Ohm"),
             fmt(rn.delta_r, 1.0, "Ohm")});
  t.add_row({"d-alpha window", fmt(rc.alpha_dev, 100.0, "%"),
             fmt(rn.alpha_dev, 100.0, "%")});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_yield(int argc, char** argv) {
  static const char* const kFlags[] = {"--json", "--faults", "--ecc",
                                       "--retry", nullptr};
  if (!reject_unknown_flags(argc, argv, kFlags)) return 2;
  YieldConfig cfg;
  bool as_json = false;
  double fault_density = -1.0;
  bool ecc = false;
  long retry = 1;
  int positional = 0;
  long rows = 0, cols = 0;
  for (int k = 2; k < argc; ++k) {
    const bool is_faults = std::strcmp(argv[k], "--faults") == 0;
    const bool is_retry = std::strcmp(argv[k], "--retry") == 0;
    if (is_faults || is_retry) {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", argv[k]);
        return 2;
      }
      const bool ok =
          is_faults ? parse_number("--faults", argv[++k], 0.0, &fault_density)
                    : parse_integer("--retry", argv[++k], 1, &retry);
      if (!ok) return 2;
    } else if (std::strcmp(argv[k], "--ecc") == 0) {
      ecc = true;
    } else if (std::strcmp(argv[k], "--json") == 0) {
      as_json = true;
    } else if (positional == 0) {
      if (!parse_integer("yield rows", argv[k], 1, &rows)) return 2;
      ++positional;
    } else if (positional == 1) {
      if (!parse_integer("yield cols", argv[k], 1, &cols)) return 2;
      ++positional;
    } else if (positional == 2) {
      if (!parse_number("yield sigma", argv[k], 0.0,
                        &cfg.variation.sigma_common)) {
        return 2;
      }
      ++positional;
    } else {
      std::fprintf(stderr, "error: unexpected argument '%s' for 'yield'\n",
                   argv[k]);
      return 2;
    }
  }
  if (positional == 1) {
    std::fprintf(stderr, "error: yield wants rows and cols together\n");
    return 2;
  }
  if ((ecc || retry > 1) && fault_density < 0.0) {
    std::fprintf(stderr,
                 "error: --ecc / --retry need --faults <density>\n");
    return 2;
  }
  if (positional >= 2) {
    cfg.geometry = {static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(cols)};
  }
  cfg.max_scatter_points = 1;

  if (fault_density >= 0.0) {
    // Fault overlay: the plain yield path below stays untouched so
    // fault-free runs are bit-identical to earlier releases.
    const fault::FaultConfig faults =
        fault::FaultConfig::with_total_density(fault_density);
    fault::BerConfig ber;
    ber.ecc = ecc;
    ber.read_attempts = static_cast<std::uint32_t>(retry);
    const fault::FaultYieldResult r =
        fault::run_yield_with_faults(cfg, faults, ber, g_executor);
    const auto schemes = {&r.conventional, &r.reference_cell,
                          &r.destructive, &r.nondestructive};
    if (as_json) {
      Json out = Json::object();
      out.set("bits", Json::integer(static_cast<std::int64_t>(
                          cfg.geometry.cell_count())));
      out.set("fault_density", Json::number(fault_density));
      out.set("faulty_bits", Json::integer(static_cast<std::int64_t>(
                                 r.faulty_bits)));
      out.set("ecc", Json::boolean(ecc));
      out.set("read_attempts", Json::integer(retry));
      Json arr = Json::array();
      for (const fault::SchemeBer* s : schemes) {
        Json j = Json::object();
        j.set("scheme", Json::string(s->scheme));
        j.set("raw_ber", Json::number(s->raw_ber));
        j.set("hard_bit_fraction", Json::number(s->hard_bit_fraction));
        j.set("post_ecc_wer", Json::number(s->post_ecc_wer));
        j.set("post_ecc_ber", Json::number(s->post_ecc_ber));
        arr.push_back(std::move(j));
      }
      out.set("schemes", std::move(arr));
      std::printf("%s\n", out.dump(2).c_str());
      return 0;
    }
    std::printf("%zu faulty bits of %zu (density %.4g, ECC %s, "
                "%ld attempt%s)\n",
                r.faulty_bits, cfg.geometry.cell_count(), fault_density,
                ecc ? "on" : "off", retry, retry == 1 ? "" : "s");
    TextTable t({"scheme", "raw BER", "hard bits", "post-ECC WER",
                 "post-ECC BER"});
    for (const fault::SchemeBer* s : schemes) {
      t.add_row({s->scheme, format_double(s->raw_ber, 4),
                 format_double(s->hard_bit_fraction, 4),
                 format_double(s->post_ecc_wer, 4),
                 format_double(s->post_ecc_ber, 6)});
    }
    std::printf("%s", t.to_string().c_str());
    return 0;
  }

  const YieldResult r = run_yield_experiment(cfg, g_executor);
  if (as_json) {
    Json out = Json::object();
    out.set("bits", Json::integer(static_cast<std::int64_t>(
                        cfg.geometry.cell_count())));
    out.set("sigma_common", Json::number(cfg.variation.sigma_common));
    Json schemes = Json::array();
    for (const SchemeYield* y :
         {&r.conventional, &r.reference_cell, &r.destructive,
          &r.nondestructive}) {
      Json s = Json::object();
      s.set("scheme", Json::string(y->scheme));
      s.set("failures",
            Json::integer(static_cast<std::int64_t>(y->failures)));
      s.set("failure_rate", Json::number(y->failure_rate()));
      s.set("sm_min_volts",
            Json::number(std::min(y->sm0_stats.min(), y->sm1_stats.min())));
      schemes.push_back(std::move(s));
    }
    out.set("schemes", std::move(schemes));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  TextTable t({"scheme", "bits", "failures", "rate"});
  for (const SchemeYield* y :
       {&r.conventional, &r.reference_cell, &r.destructive,
        &r.nondestructive}) {
    t.add_row({y->scheme, std::to_string(y->bits),
               std::to_string(y->failures),
               format_percent(y->failure_rate())});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_tail(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  if (argc > 3) {
    std::fprintf(stderr, "error: unexpected argument '%s' for 'tail'\n",
                 argv[3]);
    return 2;
  }
  TailConfig cfg;
  if (argc > 2) {
    double margin_mv = 0.0;
    if (!parse_number("tail margin_mv", argv[2], 0.0, &margin_mv)) return 2;
    cfg.threshold = Volt(margin_mv * 1e-3);
  }
  const TailEstimate e = estimate_margin_tail(cfg, 1, 20000, g_executor);
  if (e.design_point.empty()) {
    std::printf("no failure region within 12 sigma\n");
    return 0;
  }
  std::printf("threshold %s: design point at %.2f sigma\n",
              format(cfg.threshold).c_str(), e.design_radius);
  std::printf("P(fail)/bit = %.3e (+- %.1e), E[fails in 16 kb] = %.3g\n",
              e.estimate.probability, e.estimate.std_error,
              e.expected_failures_16kb);
  return 0;
}

int cmd_read(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  const bool bit = argc > 2 ? std::atoi(argv[2]) != 0 : true;
  OneT1JCell cell;
  cell.mtj().force_state(from_bit(bit));
  const SelfRefConfig config;
  const double beta =
      NondestructiveSelfReference(cell.mtj().params(), Ohm(917.0), config)
          .paper_beta();
  const NondestructiveReadOperation op(config, beta);
  const ReadResult r = op.execute(cell);
  std::printf("stored %d -> sensed %d (%s), margin %s, latency %s, "
              "energy %s\n",
              bit, r.value, r.correct ? "correct" : "WRONG",
              format(r.margin).c_str(), format(r.latency).c_str(),
              format(r.energy).c_str());
  std::printf("%s", build_timing_diagram(r).render().c_str());
  return r.correct ? 0 : 1;
}

int cmd_transient(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  SpiceReadConfig cfg;
  cfg.state = (argc > 2 && std::atoi(argv[2]) == 0)
                  ? MtjState::kParallel
                  : MtjState::kAntiParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  std::printf("stored %s -> sensed %d, V(C1)=%s V_BO=%s margin %s, "
              "decision at %s\n",
              to_string(cfg.state).data(), r.value, format(r.v_c1).c_str(),
              format(r.v_bo).c_str(), format(r.margin).c_str(),
              format(r.decision_time).c_str());
  return 0;
}

int cmd_traffic(int argc, char** argv) {
  engine::TrafficConfig cfg;
  engine::controller::ControllerConfig ctl;
  bool controller_mode = false;
  bool saw_banks = false;
  bool saw_requests = false;
  /// First bank-mode-only flag seen (incompatible with --controller).
  const char* bank_only = nullptr;
  /// First controller-only flag seen (requires --controller).
  const char* ctl_only = nullptr;
  std::string trace_path;
  double fault_ber = -1.0;
  bool ecc = false;
  long retry = 3;
  const auto flag_value = [&](int& k) -> const char* {
    if (k + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", argv[k]);
      return nullptr;
    }
    return argv[++k];
  };
  for (int k = 2; k < argc; ++k) {
    const char* flag = argv[k];
    const char* value = nullptr;
    if (std::strcmp(flag, "--scheme") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      if (!engine::parse_scheme(value, cfg.scheme)) {
        std::fprintf(stderr,
                     "error: unknown scheme '%s' (want conventional, "
                     "destructive or nondestructive)\n",
                     value);
        return 2;
      }
    } else if (std::strcmp(flag, "--requests") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.requests = static_cast<std::size_t>(std::atoll(value));
      saw_requests = true;
    } else if (std::strcmp(flag, "--banks") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.banks = static_cast<std::size_t>(std::atoll(value));
      saw_banks = true;
    } else if (std::strcmp(flag, "--controller") == 0) {
      controller_mode = true;
    } else if (std::strcmp(flag, "--channels") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      ctl.channels = static_cast<std::size_t>(std::atoll(value));
      ctl_only = flag;
    } else if (std::strcmp(flag, "--ranks") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      ctl.ranks = static_cast<std::size_t>(std::atoll(value));
      ctl_only = flag;
    } else if (std::strcmp(flag, "--rows") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      ctl.rows = static_cast<std::size_t>(std::atoll(value));
      ctl_only = flag;
    } else if (std::strcmp(flag, "--row-locality") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      ctl.row_locality = std::atof(value);
      ctl_only = flag;
    } else if (std::strcmp(flag, "--scheduler") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      if (!engine::controller::parse_scheduler(value, ctl.scheduler)) {
        std::fprintf(stderr,
                     "error: unknown scheduler '%s' (want fcfs or "
                     "frfcfs)\n",
                     value);
        return 2;
      }
      ctl_only = flag;
    } else if (std::strcmp(flag, "--starvation-cap") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      ctl.starvation_cap = static_cast<std::size_t>(std::atoll(value));
      ctl_only = flag;
    } else if (std::strcmp(flag, "--no-coalesce") == 0) {
      ctl.coalescing = false;
      ctl_only = flag;
    } else if (std::strcmp(flag, "--policy") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      if (std::strcmp(value, "fcfs") == 0) {
        cfg.policy = engine::SchedulingPolicy::kFcfs;
      } else if (std::strcmp(value, "read-priority") == 0) {
        cfg.policy = engine::SchedulingPolicy::kReadPriority;
      } else {
        std::fprintf(stderr,
                     "error: unknown policy '%s' (want fcfs or "
                     "read-priority)\n",
                     value);
        return 2;
      }
      bank_only = flag;
    } else if (std::strcmp(flag, "--workload") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      if (std::strcmp(value, "poisson") == 0) {
        cfg.workload = engine::WorkloadKind::kPoisson;
      } else if (std::strcmp(value, "closed") == 0) {
        cfg.workload = engine::WorkloadKind::kClosedLoop;
      } else if (std::strcmp(value, "trace") == 0) {
        cfg.workload = engine::WorkloadKind::kTrace;
      } else {
        std::fprintf(stderr,
                     "error: unknown workload '%s' (want poisson, closed "
                     "or trace)\n",
                     value);
        return 2;
      }
      bank_only = flag;
    } else if (std::strcmp(flag, "--rho") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.utilization = std::atof(value);
    } else if (std::strcmp(flag, "--read-fraction") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.read_fraction = std::atof(value);
    } else if (std::strcmp(flag, "--clients") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.clients = static_cast<std::size_t>(std::atoll(value));
      bank_only = flag;
    } else if (std::strcmp(flag, "--think-ns") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.think_time = Second(std::atof(value) * 1e-9);
      bank_only = flag;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--word-bits") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      cfg.word_bits = static_cast<std::size_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--trace-file") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      trace_path = value;
      bank_only = flag;
    } else if (std::strcmp(flag, "--faults") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      fault_ber = std::atof(value);
    } else if (std::strcmp(flag, "--ecc") == 0) {
      ecc = true;
    } else if (std::strcmp(flag, "--retry") == 0) {
      if ((value = flag_value(k)) == nullptr) return 2;
      retry = std::atol(value);
    } else {
      std::fprintf(stderr, "error: unknown flag '%s' for 'traffic'\n",
                   flag);
      return 2;
    }
  }
  if (!controller_mode && ctl_only != nullptr) {
    std::fprintf(stderr, "error: %s requires --controller\n", ctl_only);
    return 2;
  }
  if (controller_mode && bank_only != nullptr) {
    std::fprintf(stderr,
                 "error: %s is incompatible with --controller (the "
                 "controller is open-loop Poisson, FR-FCFS scheduled)\n",
                 bank_only);
    return 2;
  }
  if (controller_mode) {
    ctl.scheme = cfg.scheme;
    ctl.cost = cfg.cost;
    if (saw_banks) ctl.banks = cfg.banks;
    if (saw_requests) ctl.requests = cfg.requests;
    ctl.read_fraction = cfg.read_fraction;
    ctl.utilization = cfg.utilization;
    ctl.word_bits = cfg.word_bits;
    ctl.seed = cfg.seed;
    if (ecc && fault_ber < 0.0) {
      std::fprintf(stderr, "error: --ecc needs --faults <ber>\n");
      return 2;
    }
    if (retry < 1) {
      std::fprintf(stderr, "error: --retry wants a count >= 1\n");
      return 2;
    }
    std::unique_ptr<fault::TrafficFaultModel> fault_model;
    if (fault_ber >= 0.0) {
      fault::TrafficFaultConfig fc;
      fc.raw_ber = fault_ber;
      fc.ecc = ecc;
      fc.max_attempts = static_cast<std::uint32_t>(retry);
      const engine::BankTiming timing =
          engine::scheme_bank_timing(ctl.scheme, ctl.cost);
      fc.retry_latency = timing.read_service;
      fc.retry_energy = timing.read_energy;
      fc.seed = ctl.seed ^ 0x5717fa7ee1dULL;
      fault_model = std::make_unique<fault::TrafficFaultModel>(fc);
      ctl.faults = fault_model.get();
    }

    namespace ctrl = engine::controller;
    const ctrl::ControllerReport r =
        ctrl::run_controller_traffic(ctl, g_executor);
    std::printf("%s chip: %zu channels x %zu ranks x %zu banks "
                "(%zu rows/bank), %s scheduler, %zu requests "
                "(%zu reads / %zu writes)\n",
                r.scheme.c_str(), r.channels, r.ranks, r.banks, r.rows,
                r.scheduler.c_str(), r.requests, r.reads, r.writes);
    std::printf("command timing: RD %s, WR %s, tRCD %s, tRP %s\n",
                format(r.timing.t_read).c_str(),
                format(r.timing.t_write).c_str(),
                format(r.timing.t_rcd).c_str(),
                format(r.timing.t_rp).c_str());
    TextTable t({"metric", "value"});
    t.add_row({"mean latency", format(r.mean_latency)});
    t.add_row({"p50 latency", format(r.p50_latency)});
    t.add_row({"p90 latency", format(r.p90_latency)});
    t.add_row({"p99 latency", format(r.p99_latency)});
    t.add_row({"p99.9 latency", format(r.p999_latency)});
    t.add_row({"max latency", format(r.max_latency)});
    t.add_row({"mean queue wait", format(r.mean_queue_wait)});
    t.add_row({"makespan", format(r.makespan)});
    t.add_row({"row hit rate", format_percent(r.row_hit_rate)});
    t.add_row({"row hits / misses / conflicts",
               std::to_string(r.row_hits) + " / " +
                   std::to_string(r.row_misses) + " / " +
                   std::to_string(r.row_conflicts)});
    t.add_row({"coalesced reads", std::to_string(r.coalesced_reads)});
    t.add_row({"starvation promotions",
               std::to_string(r.starvation_promotions)});
    t.add_row({"peak queue depth", std::to_string(r.peak_queue_depth)});
    t.add_row({"total bandwidth",
               format_double(r.total_bandwidth_mbps, 5) + " Mb/s"});
    t.add_row({"total energy", format(r.total_energy)});
    t.add_row({"energy per bit",
               format_double(r.energy_per_bit_pj, 4) + " pJ"});
    if (r.faults_enabled) {
      t.add_row({"raw bit errors",
                 std::to_string(r.faults.raw_bit_errors)});
      t.add_row({"faulty reads", std::to_string(r.faults.faulty_reads)});
      t.add_row({"retries", std::to_string(r.faults.retries)});
      t.add_row({"ECC corrected",
                 std::to_string(r.faults.corrected_words)});
      t.add_row({"ECC uncorrectable",
                 std::to_string(r.faults.uncorrectable_words)});
      t.add_row({"silent corruptions",
                 std::to_string(r.faults.silent_corruptions)});
      t.add_row({"recovery latency", format(r.faults.extra_latency)});
      t.add_row({"recovery energy", format(r.faults.extra_energy)});
    }
    std::printf("%s", t.to_string().c_str());

    TextTable per({"channel", "requests", "mean lat", "p99 lat",
                   "bandwidth", "bank util", "row hit"});
    for (std::size_t c = 0; c < r.channel.size(); ++c) {
      const ctrl::ChannelReport& ch = r.channel[c];
      const std::size_t rows_served =
          ch.row_hits + ch.row_misses + ch.row_conflicts;
      per.add_row({std::to_string(c), std::to_string(ch.requests),
                   format(ch.mean_latency), format(ch.p99_latency),
                   format_double(ch.bandwidth_mbps, 5) + " Mb/s",
                   format_percent(ch.avg_bank_utilization),
                   format_percent(rows_served > 0
                                      ? static_cast<double>(ch.row_hits) /
                                            static_cast<double>(rows_served)
                                      : 0.0)});
    }
    std::printf("%s", per.to_string().c_str());

    std::printf("\nread command sequence (row miss, %s):\n",
                r.scheme.c_str());
    std::printf("%s", ctrl::render_command_sequence(
                          ctrl::read_command_sequence(ctl.scheme, ctl.cost))
                          .c_str());
    return 0;
  }
  if (!trace_path.empty()) {
    std::ifstream in(trace_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open trace file '%s'\n",
                   trace_path.c_str());
      return 2;
    }
    cfg.trace = engine::load_trace_csv(in);
    cfg.workload = engine::WorkloadKind::kTrace;
  } else if (cfg.workload == engine::WorkloadKind::kTrace) {
    std::fprintf(stderr,
                 "error: --workload trace requires --trace-file <csv>\n");
    return 2;
  }
  if (ecc && fault_ber < 0.0) {
    std::fprintf(stderr, "error: --ecc needs --faults <ber>\n");
    return 2;
  }
  if (retry < 1) {
    std::fprintf(stderr, "error: --retry wants a count >= 1\n");
    return 2;
  }
  std::unique_ptr<fault::TrafficFaultModel> fault_model;
  if (fault_ber >= 0.0) {
    fault::TrafficFaultConfig fc;
    fc.raw_ber = fault_ber;
    fc.ecc = ecc;
    fc.max_attempts = static_cast<std::uint32_t>(retry);
    // A retry re-runs the whole read: charge the scheme's service time.
    const engine::BankTiming timing =
        engine::scheme_bank_timing(cfg.scheme, cfg.cost);
    fc.retry_latency = timing.read_service;
    fc.retry_energy = timing.read_energy;
    fc.seed = cfg.seed ^ 0x5717fa7ee1dULL;
    fault_model = std::make_unique<fault::TrafficFaultModel>(fc);
    cfg.faults = fault_model.get();
  }

  const engine::TrafficReport r = engine::run_traffic(cfg);
  std::printf("%s, %zu banks, %s workload, %zu requests "
              "(%zu reads / %zu writes)\n",
              r.scheme.c_str(), cfg.banks,
              cfg.workload == engine::WorkloadKind::kPoisson ? "poisson"
              : cfg.workload == engine::WorkloadKind::kClosedLoop
                  ? "closed-loop"
                  : "trace",
              r.requests, r.reads, r.writes);
  std::printf("service: read %s, write %s\n", format(r.read_service).c_str(),
              format(r.write_service).c_str());
  TextTable t({"metric", "value"});
  t.add_row({"mean latency", format(r.mean_latency)});
  t.add_row({"p50 latency", format(r.p50_latency)});
  t.add_row({"p90 latency", format(r.p90_latency)});
  t.add_row({"p99 latency", format(r.p99_latency)});
  t.add_row({"max latency", format(r.max_latency)});
  t.add_row({"mean read latency", format(r.mean_read_latency)});
  t.add_row({"mean write latency", format(r.mean_write_latency)});
  t.add_row({"mean queue wait", format(r.mean_queue_wait)});
  t.add_row({"makespan", format(r.makespan)});
  t.add_row({"sustained bandwidth",
             format_double(r.sustained_bandwidth_mbps, 5) + " Mb/s"});
  t.add_row({"avg bank utilization",
             format_percent(r.avg_bank_utilization)});
  t.add_row({"peak queue depth", std::to_string(r.peak_queue_depth)});
  t.add_row({"total energy", format(r.total_energy)});
  t.add_row({"energy per bit",
             format_double(r.energy_per_bit_pj, 4) + " pJ"});
  if (r.faults_enabled) {
    t.add_row({"raw bit errors", std::to_string(r.faults.raw_bit_errors)});
    t.add_row({"faulty reads", std::to_string(r.faults.faulty_reads)});
    t.add_row({"retries", std::to_string(r.faults.retries)});
    t.add_row({"ECC corrected", std::to_string(r.faults.corrected_words)});
    t.add_row({"ECC uncorrectable",
               std::to_string(r.faults.uncorrectable_words)});
    t.add_row({"silent corruptions",
               std::to_string(r.faults.silent_corruptions)});
    t.add_row({"recovery latency", format(r.faults.extra_latency)});
    t.add_row({"recovery energy", format(r.faults.extra_energy)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_fault(int argc, char** argv) {
  static const char* const kFlags[] = {"--seed", "--rows", "--cols",
                                       "--density", "--json", nullptr};
  if (!reject_unknown_flags(argc, argv, kFlags)) return 2;
  std::uint64_t seed = 1;
  std::size_t rows = 64, cols = 64;
  double density = 0.01;
  bool as_json = false;
  for (int k = 2; k < argc; ++k) {
    const char* flag = argv[k];
    if (std::strcmp(flag, "--json") == 0) {
      as_json = true;
      continue;
    }
    if (k + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", flag);
      return 2;
    }
    const char* value = argv[++k];
    if (std::strcmp(flag, "--seed") == 0) {
      seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--rows") == 0) {
      rows = static_cast<std::size_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--cols") == 0) {
      cols = static_cast<std::size_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--density") == 0) {
      density = std::atof(value);
    }
  }
  if (rows == 0 || cols == 0) {
    std::fprintf(stderr, "error: --rows / --cols must be > 0\n");
    return 2;
  }

  const ArrayGeometry geometry{rows, cols};
  const fault::FaultConfig config =
      fault::FaultConfig::with_total_density(density);
  const fault::FaultMap map =
      fault::generate_fault_map(geometry, config, seed, g_executor);
  // No process variation: every flagged cell is then attributable to an
  // injected fault (extra_flags isolates scheme-induced misreads).
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());

  struct Run {
    ReadScheme scheme;
    fault::MarchCoverageReport report;
  };
  std::vector<Run> runs;
  for (const ReadScheme scheme :
       {ReadScheme::kConventional, ReadScheme::kDestructive,
        ReadScheme::kNondestructive}) {
    TestableArray array(geometry, variation, seed, SelfRefConfig{},
                        Volt(0.0));
    runs.push_back(
        {scheme, fault::run_march_with_faults(array, map, scheme)});
  }

  if (as_json) {
    Json out = Json::object();
    out.set("seed", Json::integer(static_cast<std::int64_t>(seed)));
    out.set("rows", Json::integer(static_cast<std::int64_t>(rows)));
    out.set("cols", Json::integer(static_cast<std::int64_t>(cols)));
    out.set("density", Json::number(density));
    out.set("injected",
            Json::integer(static_cast<std::int64_t>(map.total())));
    Json schemes = Json::array();
    for (const Run& run : runs) {
      Json s = Json::object();
      s.set("scheme", Json::string(std::string(to_string(run.scheme))));
      s.set("operations", Json::integer(static_cast<std::int64_t>(
                              run.report.operations)));
      s.set("detected", Json::integer(static_cast<std::int64_t>(
                            run.report.detected_cells)));
      s.set("coverage", Json::number(run.report.coverage()));
      s.set("extra_flags", Json::integer(static_cast<std::int64_t>(
                               run.report.extra_flags)));
      Json classes = Json::array();
      for (const fault::FaultClassCoverage& c : run.report.classes) {
        Json j = Json::object();
        j.set("fault", Json::string(std::string(to_string(c.type))));
        j.set("injected",
              Json::integer(static_cast<std::int64_t>(c.injected)));
        j.set("detected",
              Json::integer(static_cast<std::int64_t>(c.detected)));
        j.set("coverage", Json::number(c.coverage()));
        classes.push_back(std::move(j));
      }
      s.set("classes", std::move(classes));
      schemes.push_back(std::move(s));
    }
    out.set("schemes", std::move(schemes));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }

  std::printf("injected %zu faults into %zu x %zu "
              "(density %.4g, seed %llu), March C-\n",
              map.total(), rows, cols, density,
              static_cast<unsigned long long>(seed));
  TextTable t({"fault class", "injected", "conventional", "destructive",
               "nondestructive"});
  const auto coverage_cell = [](const fault::MarchCoverageReport& report,
                                FaultType type) {
    for (const fault::FaultClassCoverage& c : report.classes) {
      if (c.type == type) {
        return std::to_string(c.detected) + " (" +
               format_percent(c.coverage()) + ")";
      }
    }
    return std::string("-");
  };
  for (const fault::FaultClassCoverage& c : runs[0].report.classes) {
    t.add_row({std::string(to_string(c.type)), std::to_string(c.injected),
               coverage_cell(runs[0].report, c.type),
               coverage_cell(runs[1].report, c.type),
               coverage_cell(runs[2].report, c.type)});
  }
  const auto totals = [](const fault::MarchCoverageReport& report) {
    return std::to_string(report.detected_cells) + " (" +
           format_percent(report.coverage()) + ")";
  };
  t.add_row({"total", std::to_string(runs[0].report.injected_cells),
             totals(runs[0].report), totals(runs[1].report),
             totals(runs[2].report)});
  t.add_row({"extra flags", "-",
             std::to_string(runs[0].report.extra_flags),
             std::to_string(runs[1].report.extra_flags),
             std::to_string(runs[2].report.extra_flags)});
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// Loads a whole file; empty optional-on-failure via the `ok` flag.
bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

int cmd_campaign(int argc, char** argv) {
  const auto usage = []() {
    std::fprintf(stderr,
                 "usage: sttram_cli campaign {run|list|expand|verify} "
                 "[file] [--out <report>] [--golden <report>] [--json]\n");
    return 2;
  };
  if (argc < 3) return usage();
  const std::string verb = argv[2];

  if (verb == "list") {
    for (int k = 3; k < argc; ++k) {
      std::fprintf(stderr, "error: unknown flag '%s' for 'campaign list'\n",
                   argv[k]);
      return 2;
    }
    scenario::register_builtin_kinds();
    for (const scenario::ExperimentKind& kind :
         scenario::Registry::instance().kinds()) {
      std::printf("%s - %s\n", kind.name.c_str(), kind.description.c_str());
      for (const scenario::ParamField& f : kind.schema.fields()) {
        std::string type = to_string(f.type);
        if (!f.choices.empty()) {
          type += "(";
          for (std::size_t i = 0; i < f.choices.size(); ++i) {
            if (i > 0) type += "|";
            type += f.choices[i];
          }
          type += ")";
        }
        std::printf("  %-18s %-10s %s\n", f.name.c_str(), type.c_str(),
                    f.description.c_str());
      }
    }
    return 0;
  }

  if (verb != "run" && verb != "expand" && verb != "verify") {
    std::fprintf(stderr,
                 "error: unknown campaign verb '%s' (try one of run, "
                 "list, expand, verify)\n",
                 verb.c_str());
    return 2;
  }

  // Shared flag parse for run/expand/verify: one positional campaign
  // file plus --out / --golden / --json where the verb supports them.
  std::string campaign_path;
  std::string out_path;
  std::string golden_path;
  bool as_json = false;
  for (int k = 3; k < argc; ++k) {
    const char* flag = argv[k];
    const bool is_out = std::strcmp(flag, "--out") == 0;
    const bool is_golden = std::strcmp(flag, "--golden") == 0;
    if (is_out || is_golden) {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", flag);
        return 2;
      }
      (is_out ? out_path : golden_path) = argv[++k];
    } else if (std::strcmp(flag, "--json") == 0) {
      as_json = true;
    } else if (std::strncmp(flag, "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s' for 'campaign %s'\n",
                   flag, verb.c_str());
      return 2;
    } else if (campaign_path.empty()) {
      campaign_path = flag;
    } else {
      std::fprintf(stderr, "error: extra argument '%s'\n", flag);
      return 2;
    }
  }
  if (campaign_path.empty()) {
    std::fprintf(stderr, "error: campaign %s needs a campaign file\n",
                 verb.c_str());
    return 2;
  }
  if ((verb != "run" && !out_path.empty()) ||
      (verb != "verify" && !golden_path.empty())) {
    std::fprintf(stderr, "error: %s is not a 'campaign %s' flag\n",
                 out_path.empty() ? "--golden" : "--out", verb.c_str());
    return 2;
  }
  if (verb == "verify" && golden_path.empty()) {
    std::fprintf(stderr,
                 "error: campaign verify needs --golden <report>\n");
    return 2;
  }

  std::string text;
  if (!read_file(campaign_path, text)) {
    std::fprintf(stderr, "error: cannot open campaign file '%s'\n",
                 campaign_path.c_str());
    return 2;
  }
  const scenario::CampaignSpec spec = scenario::parse_campaign_text(text);
  scenario::register_builtin_kinds();

  if (verb == "expand") {
    const auto instances = scenario::expand_campaign(spec);
    if (as_json) {
      Json arr = Json::array();
      for (const scenario::ScenarioInstance& inst : instances) {
        Json j = Json::object();
        j.set("name", Json::string(inst.name));
        j.set("kind", Json::string(inst.kind));
        j.set("seed",
              Json::integer(static_cast<std::int64_t>(inst.seed)));
        j.set("params", inst.params);
        arr.push_back(std::move(j));
      }
      std::printf("%s\n", arr.dump(2).c_str());
      return 0;
    }
    TextTable t({"#", "scenario", "kind", "seed"});
    for (const scenario::ScenarioInstance& inst : instances) {
      t.add_row({std::to_string(inst.index), inst.name, inst.kind,
                 std::to_string(inst.seed)});
    }
    std::printf("campaign '%s': %zu scenario instance%s\n",
                spec.name.c_str(), instances.size(),
                instances.size() == 1 ? "" : "s");
    std::printf("%s", t.to_string().c_str());
    return 0;
  }

  const scenario::CampaignReport report =
      scenario::run_campaign(spec, g_executor);

  if (verb == "verify") {
    std::string golden_text;
    if (!read_file(golden_path, golden_text)) {
      std::fprintf(stderr, "error: cannot open golden report '%s'\n",
                   golden_path.c_str());
      return 2;
    }
    const scenario::CampaignReport golden =
        scenario::CampaignReport::from_json(Json::parse(golden_text));
    const std::vector<scenario::MetricDiff> diffs =
        scenario::diff_reports(golden, report, spec.tolerances);
    if (diffs.empty()) {
      std::printf("campaign '%s': PASS (%zu scenarios match '%s')\n",
                  spec.name.c_str(), report.scenarios.size(),
                  golden_path.c_str());
      return 0;
    }
    std::printf("campaign '%s': FAIL (%zu mismatch%s vs '%s')\n",
                spec.name.c_str(), diffs.size(),
                diffs.size() == 1 ? "" : "es", golden_path.c_str());
    TextTable t({"scenario", "metric", "detail"});
    for (const scenario::MetricDiff& d : diffs) {
      t.add_row({d.scenario, d.metric.empty() ? "-" : d.metric, d.detail});
    }
    std::printf("%s", t.to_string().c_str());
    return 1;
  }

  // verb == "run"
  const Json doc = report.to_json();
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write report '%s'\n",
                   out_path.c_str());
      return 1;
    }
    out << doc.dump(2) << "\n";
  }
  if (as_json || !out_path.empty()) {
    if (as_json) std::printf("%s\n", doc.dump(2).c_str());
    else
      std::printf("campaign '%s': %zu scenarios -> %s\n",
                  spec.name.c_str(), report.scenarios.size(),
                  out_path.c_str());
    return 0;
  }
  std::printf("campaign '%s' seed %llu: %zu scenario instance%s\n",
              spec.name.c_str(),
              static_cast<unsigned long long>(report.seed),
              report.scenarios.size(),
              report.scenarios.size() == 1 ? "" : "s");
  TextTable t({"scenario", "kind", "metrics"});
  for (const scenario::ScenarioResult& s : report.scenarios) {
    t.add_row({s.name, s.kind, std::to_string(s.metrics.size())});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_stats(int argc, char** argv) {
  if (!reject_unknown_flags(argc, argv)) return 2;
  // Self-profiling snapshot: run one representative workload from each
  // instrumented subsystem with telemetry and phase profiling forced
  // on, then print the registry.  Shows which solver/MC counters a
  // real run would carry.
  obs::set_metrics_enabled(true);
  obs::set_profiling_enabled(true);
  // Which ISA the batched MC kernels dispatch to (numeric enum value as
  // a gauge; the human-readable name is printed below).
  const SimdIsa isa = active_simd_isa();
  STTRAM_OBS_SET_GAUGE("mc.simd.isa", static_cast<int>(isa));
  {
    YieldConfig cfg;
    cfg.geometry = {32, 32};
    cfg.max_scatter_points = 1;
    run_yield_experiment(cfg, g_executor);
  }
  {
    SpiceReadConfig cfg;
    simulate_nondestructive_read(cfg);  // exercises the MNA Newton solver
  }
  estimate_margin_tail(TailConfig{}, 1, 4000, g_executor);
  {
    engine::TrafficConfig cfg;
    cfg.requests = 20000;
    engine::run_traffic(cfg);
  }

  std::printf("simd isa: %s\n\n", simd_isa_name(isa));

  const auto& registry = obs::Registry::instance();
  TextTable t({"metric", "count", "value | mean", "min", "max"});
  for (const auto& c : registry.counters()) {
    t.add_row({c.name, std::to_string(c.value), "", "", ""});
  }
  for (const auto& g : registry.gauges()) {
    t.add_row({g.name, "", format_double(g.value, 4), "", ""});
  }
  for (const auto& tm : registry.timers()) {
    const bool empty = tm.stats.count() == 0;
    t.add_row({tm.name, std::to_string(tm.stats.count()),
               empty ? "" : format_double(tm.stats.mean(), 4),
               empty ? "" : format_double(tm.stats.min(), 4),
               empty ? "" : format_double(tm.stats.max(), 4)});
  }
  std::printf("%s", t.to_string().c_str());

  // Latency distributions with the full percentile set.
  TextTable h({"histogram", "count", "mean", "p50", "p90", "p99", "p999",
               "max"});
  for (const auto& hs : registry.histograms()) {
    const obs::HistogramSummary s = hs.hist.summary();
    const bool empty = s.count == 0;
    h.add_row({hs.name, std::to_string(s.count),
               empty ? "" : format_double(s.mean, 4),
               empty ? "" : format_double(s.p50, 4),
               empty ? "" : format_double(s.p90, 4),
               empty ? "" : format_double(s.p99, 4),
               empty ? "" : format_double(s.p999, 4),
               empty ? "" : format_double(s.max, 4)});
  }
  std::printf("\n%s", h.to_string().c_str());

  // Operating-point cache effectiveness across the workloads above.
  std::uint64_t op_hits = 0;
  std::uint64_t op_misses = 0;
  for (const auto& c : registry.counters()) {
    if (c.name == "mc.opcache.hits") op_hits = c.value;
    if (c.name == "mc.opcache.misses") op_misses = c.value;
  }
  if (op_hits + op_misses > 0) {
    std::printf("\nop-cache: %llu hits / %llu misses (hit rate %.1f%%)\n",
                static_cast<unsigned long long>(op_hits),
                static_cast<unsigned long long>(op_misses),
                100.0 * static_cast<double>(op_hits) /
                    static_cast<double>(op_hits + op_misses));
  }

  // Flat phase profile (self time descending, as the Profiler sorts).
  TextTable p({"phase", "calls", "total [s]", "self [s]"});
  for (const obs::PhaseStats& row : obs::Profiler::instance().report()) {
    p.add_row({row.name, std::to_string(row.calls),
               format_double(row.total_seconds, 4),
               format_double(row.self_seconds, 4)});
  }
  if (p.row_count() > 0) std::printf("\n%s", p.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the global flags; everything else is forwarded to the
  // subcommand untouched, so numerical output is independent of them.
  std::string metrics_path;
  std::string trace_path;
  long threads = 1;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int k = 1; k < argc; ++k) {
    const bool is_metrics = std::strcmp(argv[k], "--metrics") == 0;
    const bool is_trace = std::strcmp(argv[k], "--trace") == 0;
    const bool is_threads = std::strcmp(argv[k], "--threads") == 0;
    const bool is_simd = std::strcmp(argv[k], "--simd") == 0;
    if (is_metrics || is_trace || is_threads || is_simd) {
      if (k + 1 >= argc) {
        std::fprintf(stderr, "error: %s requires a value\n", argv[k]);
        return 2;
      }
      if (is_threads) {
        threads = std::atol(argv[++k]);
        if (threads < 1) {
          std::fprintf(stderr, "error: --threads wants a count >= 1\n");
          return 2;
        }
      } else if (is_simd) {
        const char* value = argv[++k];
        SimdIsa isa = SimdIsa::kScalar;
        bool is_auto = false;
        if (!parse_simd_isa(value, &isa, &is_auto)) {
          std::fprintf(stderr,
                       "error: --simd: unrecognized value '%s' (expected "
                       "auto|scalar|sse2|avx2|avx512|neon)\n",
                       value);
          return 2;
        }
        try {
          if (is_auto) clear_simd_isa_override();
          else set_simd_isa_override(isa);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "error: %s\n", e.what());
          return 2;
        }
      } else {
        (is_metrics ? metrics_path : trace_path) = argv[++k];
      }
    } else {
      args.push_back(argv[k]);
    }
  }
  // Resolve the kernel ISA up front so a bogus STTRAM_SIMD value is a
  // usage error (exit 2) before any command output, not a mid-run throw.
  try {
    (void)active_simd_isa();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (args.size() < 2) {
    std::fprintf(
        stderr,
        "usage: sttram_cli [--metrics <file>] [--trace <file>] "
        "[--threads <n>] [--simd <isa>] "
        "{margins|design|robustness|yield|tail|read|transient|traffic|"
        "fault|campaign|stats|help} [args]\n");
    return 2;
  }
  if (!metrics_path.empty()) {
    obs::set_metrics_enabled(true);
    obs::set_profiling_enabled(true);
  }
  if (!trace_path.empty()) obs::TraceRecorder::instance().start();
  std::unique_ptr<engine::ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<engine::ThreadPool>(
        static_cast<std::size_t>(threads));
    g_executor = pool.get();
  }

  const int sub_argc = static_cast<int>(args.size());
  char** sub_argv = args.data();
  const std::string cmd = sub_argv[1];
  int rc = 2;
  try {
    if (cmd == "margins") rc = cmd_margins(sub_argc, sub_argv);
    else if (cmd == "design") rc = cmd_design(sub_argc, sub_argv);
    else if (cmd == "robustness") rc = cmd_robustness(sub_argc, sub_argv);
    else if (cmd == "yield") rc = cmd_yield(sub_argc, sub_argv);
    else if (cmd == "tail") rc = cmd_tail(sub_argc, sub_argv);
    else if (cmd == "read") rc = cmd_read(sub_argc, sub_argv);
    else if (cmd == "transient") rc = cmd_transient(sub_argc, sub_argv);
    else if (cmd == "traffic") rc = cmd_traffic(sub_argc, sub_argv);
    else if (cmd == "fault") rc = cmd_fault(sub_argc, sub_argv);
    else if (cmd == "campaign") rc = cmd_campaign(sub_argc, sub_argv);
    else if (cmd == "stats") rc = cmd_stats(sub_argc, sub_argv);
    else if (cmd == "help" || cmd == "-h" || cmd == "--help") {
      print_help();
      rc = 0;
    } else {
      std::fprintf(stderr,
                   "error: unknown command '%s' (try one of margins, "
                   "design, robustness, yield, tail, read, transient, "
                   "traffic, fault, campaign, stats, help)\n",
                   cmd.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (!metrics_path.empty()) obs::write_metrics_json(metrics_path);
    if (!trace_path.empty()) {
      obs::TraceRecorder::instance().stop();
      obs::write_trace_json(trace_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return rc == 0 ? 1 : rc;
  }
  return rc;
}
