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
// same text is printed for -h, --help and the help command), and
// `sttram_cli <command> --help` for one command's arguments with the
// type, range and default of the field each one sets.
//
// The yield, tail, traffic and fault commands run experiment kinds of the
// scenario registry.  Each declares one table mapping its flags and
// positional slots to fields of the kind it runs; the kind's ParamSchema
// checks every value and its builder (scenario/builders.hpp) turns the
// params into the library config, exactly as for a campaign instance.
// A bad token, value or flag combination is a usage error (exit 2).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
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
#include "sttram/scenario/builders.hpp"
#include "sttram/scenario/campaign.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/sense/design.hpp"
#include "sttram/sense/margins.hpp"
#include "sttram/sense/robustness.hpp"
#include "sttram/sim/spice_read.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/timing_diagram.hpp"
#include "sttram/sim/yield.hpp"
#include "sttram_git_sha.hpp"

using namespace sttram;

namespace {

/// Shared executor from the global --threads flag (null = serial).
ParallelExecutor* g_executor = nullptr;

/// A malformed command line: main prints it and exits 2.
class UsageError : public Error {
 public:
  using Error::Error;
};

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
      "                           counters, gauges, histogram percentiles\n"
      "                           and the phase profile\n"
      "  help                     print this help (same as -h / --help)\n"
      "\n"
      "<command> --help lists a command's arguments with the type, range\n"
      "and default of the field each one sets.\n"
      "\n"
      "Global flags (before or after the command):\n"
      "  --metrics <file>   enable telemetry + phase profiling; dump the\n"
      "                     registry (histogram percentiles, profile and\n"
      "                     the run's provenance included) as JSON\n"
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

// ------------------------------------------------------ argument reading

using Tokens = std::vector<std::string>;
using scenario::CliArg;
using scenario::CliArgs;
using scenario::Range;

/// Calls `step`, which reads the command line: any library error it
/// raises blames the user's input, so it becomes a usage error.
template <class Step>
auto from_args(Step&& step) {
  try {
    return step();
  } catch (const Error& e) {
    throw UsageError(e.what());
  }
}

const scenario::ParamSchema& schema_of(const char* kind) {
  scenario::register_builtin_kinds();
  return scenario::Registry::instance().find(kind)->schema;
}

/// `tokens` read through `table` against the schema of `kind`.
CliArgs read_args(const std::vector<CliArg>& table, const char* kind,
                  const Tokens& tokens, const std::string& command) {
  return from_args([&] {
    return scenario::parse_cli_args(table, schema_of(kind), tokens, command);
  });
}

/// The arguments of a command without a kind: `table` holds at most one
/// positional slot and no flags.  Returns the slot's argument or "".
std::string lone_arg(const Tokens& tokens, const std::vector<CliArg>& table,
                     const char* command) {
  const CliArgs args = from_args([&] {
    return scenario::parse_cli_args(table, {}, tokens, command);
  });
  return args.cli.empty() ? "" : args.cli.begin()->second;
}

/// `token` read strictly as a value of `type` inside `valid`, like a
/// schema field; `what` names it in the usage error.
Json arg_value(const char* what, const std::string& token,
               scenario::ParamType type, Range valid) {
  scenario::ParamField field;
  field.type = type;
  field.range = valid;
  return from_args([&] { return field.read(token, what); });
}

/// The seed a command runs with: --seed, else the command's own default.
std::uint64_t seed_arg(const CliArgs& args, std::int64_t fallback) {
  return static_cast<std::uint64_t>(
      scenario::param_int(args.params, "seed", fallback));
}

// Each table maps a flag, or a positional slot ("<rows>"), to a field of
// the kind its command runs; rows without a field are CLI-only.  Flags
// stay string literals here: tests/cli_help_test.sh scrapes them.

/// design, robustness, stats and campaign list take no argument.
const std::vector<CliArg> kNoArgs = {};
const std::vector<CliArg> kMarginsArgs = {{"<beta>", nullptr}};
/// read and transient take the stored bit.
const std::vector<CliArg> kBitArgs = {{"<bit>", nullptr}};

/// yield runs `yield`, or `fault_overlay` when --faults is given.
const std::vector<CliArg> kYieldArgs = {
    {"<rows>", "rows"},
    {"<cols>", "cols"},
    {"<sigma>", "sigma_common"},
    {"--faults", "density"},
    {"--ecc", "ecc", "true"},
    {"--retry", "retry"},
    {"--json", nullptr, ""}};

/// tail runs `tail`.
const std::vector<CliArg> kTailArgs = {{"<margin_mv>", "threshold_mv"}};

/// traffic runs `traffic`, or `controller` when --controller is given;
/// `--workload trace` replays --trace-file.
const std::vector<CliArg> kTrafficArgs = {
    {"--controller", nullptr, ""},
    {"--scheme", "scheme"},
    {"--requests", "requests"},
    {"--banks", "banks"},
    {"--policy", "policy"},
    {"--workload", "workload", nullptr, "trace"},
    {"--rho", "rho"},
    {"--read-fraction", "read_fraction"},
    {"--clients", "clients"},
    {"--think-ns", "think_ns"},
    {"--seed", "seed"},
    {"--word-bits", "word_bits"},
    {"--trace-file", nullptr},
    {"--faults", "faults_ber"},
    {"--ecc", "ecc", "true"},
    {"--retry", "retry"},
    {"--channels", "channels"},
    {"--ranks", "ranks"},
    {"--rows", "rows"},
    {"--row-locality", "row_locality"},
    {"--scheduler", "scheduler"},
    {"--starvation-cap", "starvation_cap"},
    {"--no-coalesce", "coalescing", "false"}};

/// fault reads the rows, cols, density and seed of `march`, then runs
/// March C- with every scheme.
const std::vector<CliArg> kFaultArgs = {
    {"--seed", "seed"},
    {"--rows", "rows"},
    {"--cols", "cols"},
    {"--density", "density"},
    {"--json", nullptr, ""}};

/// campaign run, expand and verify read one campaign file and flags.
const std::vector<CliArg> kCampaignRunArgs = {
    {"<file>", nullptr}, {"--out", nullptr}, {"--json", nullptr, ""}};
const std::vector<CliArg> kCampaignExpandArgs = {{"<file>", nullptr},
                                                 {"--json", nullptr, ""}};
const std::vector<CliArg> kCampaignVerifyArgs = {{"<file>", nullptr},
                                                 {"--golden", nullptr}};

// ------------------------------------------------------ per-command help

/// What a CLI-only row does; rows that set a field print the field's
/// schema entry instead.  A row tied to a kind shows only in the help
/// section of that kind.
struct CliOnlyHelp {
  const char* kind;  ///< nullptr: every section
  const char* text;
};
const std::map<std::string, CliOnlyHelp> kCliOnlyHelp = {
    {"<beta>",
     {nullptr, "a number in (0, inf), default the paper's - "
               "nondestructive read-current ratio"}},
    {"<bit>", {nullptr, "0 or 1, default 1 - the stored bit"}},
    {"--json", {nullptr, "print machine-readable JSON"}},
    {"--controller",
     {"controller", "run the chip-scale controller, not the bank model"}},
    {"--trace-file",
     {"traffic", "replay a request-trace CSV (arrival_s,op,bank)"}},
    {"<file>", {nullptr, "the campaign JSON file"}},
    {"--out", {nullptr, "write the campaign report JSON to this file"}},
    {"--golden", {nullptr, "the golden report to diff against"}},
};

/// One command's `--help` page.
struct CommandHelp {
  const char* usage;  ///< after "usage: sttram_cli "
  const std::vector<CliArg>* table;
  /// The kinds the command runs and when, one help section each; empty
  /// when the command runs no kind.
  std::vector<std::pair<const char*, const char*>> kinds;
};

const std::map<std::string, CommandHelp> kCommandHelp = {
    {"margins", {"margins [<beta>]", &kMarginsArgs, {}}},
    {"design", {"design", &kNoArgs, {}}},
    {"robustness", {"robustness", &kNoArgs, {}}},
    {"yield",
     {"yield [<rows> <cols> [<sigma>]] [flags]",
      &kYieldArgs,
      {{"yield", "without --faults"}, {"fault_overlay", "with --faults"}}}},
    {"tail", {"tail [<margin_mv>]", &kTailArgs, {{"tail", ""}}}},
    {"read", {"read [<bit>]", &kBitArgs, {}}},
    {"transient", {"transient [<bit>]", &kBitArgs, {}}},
    {"traffic",
     {"traffic [flags]",
      &kTrafficArgs,
      {{"traffic", "without --controller"},
       {"controller", "with --controller"}}}},
    {"fault", {"fault [flags]", &kFaultArgs, {{"march", ""}}}},
    {"campaign",
     {"campaign {run|list|expand|verify} ...  (campaign <verb> --help)",
      &kNoArgs,
      {}}},
    {"campaign run", {"campaign run <file> [flags]", &kCampaignRunArgs, {}}},
    {"campaign list", {"campaign list", &kNoArgs, {}}},
    {"campaign expand",
     {"campaign expand <file> [flags]", &kCampaignExpandArgs, {}}},
    {"campaign verify",
     {"campaign verify <file> --golden <report>", &kCampaignVerifyArgs, {}}},
    {"stats", {"stats", &kNoArgs, {}}},
};

/// The rows of `table` that apply to `kind` (nullptr: the command runs
/// no kind), one line each: the flag, then the schema entry of the field
/// it sets as `campaign list` prints it, or what a CLI-only row does.
std::string help_rows(const std::vector<CliArg>& table, const char* kind) {
  std::string out;
  for (const CliArg& row : table) {
    const bool takes_value = row.bare == nullptr && row.flag[0] == '-';
    std::string text;
    if (row.field == nullptr) {
      const CliOnlyHelp& only = kCliOnlyHelp.at(row.flag);
      if (only.kind != nullptr &&
          (kind == nullptr || std::strcmp(only.kind, kind) != 0)) {
        continue;
      }
      text = only.text;
    } else {
      const scenario::ParamField* field = schema_of(kind).find(row.field);
      if (field == nullptr) continue;  // the command's other kind
      text = std::string(row.field) + ": " + field->summary();
      if (row.bare != nullptr) {
        text = std::string(row.field) + " = " + row.bare + "; " + text;
      }
      if (row.cli_token != nullptr) {
        text += "; or '" + std::string(row.cli_token) + "' (CLI only)";
      }
    }
    std::string lead =
        std::string("  ") + row.flag + (takes_value ? " <value>" : "");
    lead.resize(std::max<std::size_t>(lead.size() + 1, 28), ' ');
    out += lead + text + "\n";
  }
  return out;
}

void print_command_help(const CommandHelp& help) {
  std::printf("usage: sttram_cli %s\n", help.usage);
  if (help.kinds.empty()) {
    std::printf("%s", help_rows(*help.table, nullptr).c_str());
  }
  for (const auto& [kind, when] : help.kinds) {
    std::printf("\nkind %s%s%s:\n%s", kind, when[0] != '\0' ? ", " : "",
                when, help_rows(*help.table, kind).c_str());
  }
}

// --------------------------------------------------------------- commands

int cmd_margins(const Tokens& tokens) {
  const std::string beta_arg = lone_arg(tokens, kMarginsArgs, "margins");
  const MtjParams mtj = MtjParams::paper_calibrated();
  const Ohm r_t(917.0);
  const SelfRefConfig config;
  const NondestructiveSelfReference nondes(mtj, r_t, config);
  const DestructiveSelfReference destr(mtj, r_t, config);
  const double beta =
      beta_arg.empty() ? nondes.paper_beta()
                       : arg_value("margins <beta>", beta_arg,
                                   scenario::ParamType::kNumber,
                                   Range::above(0))
                             .as_number();
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

int cmd_design(const Tokens& tokens) {
  (void)lone_arg(tokens, kNoArgs, "design");
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

int cmd_robustness(const Tokens& tokens) {
  (void)lone_arg(tokens, kNoArgs, "robustness");
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

int cmd_yield(const Tokens& tokens) {
  const bool with_faults =
      std::count(tokens.begin(), tokens.end(), "--faults") > 0;
  const CliArgs args =
      read_args(kYieldArgs, with_faults ? "fault_overlay" : "yield", tokens,
                with_faults ? "yield --faults" : "yield without --faults");
  if (args.params.contains("rows") != args.params.contains("cols")) {
    throw UsageError("yield wants <rows> and <cols> together");
  }
  const bool as_json = args.cli.count("--json") > 0;
  const scenario::FieldNames names = scenario::cli_names(kYieldArgs);

  if (with_faults) {
    // Fault overlay: the plain yield path below stays untouched so
    // fault-free runs are bit-identical to earlier releases.
    const scenario::FaultOverlaySetup f = from_args([&] {
      return scenario::build_fault_overlay(args.params, YieldConfig{}.seed,
                                           names);
    });
    const YieldConfig& cfg = f.yield;
    const double fault_density = args.params.at("density").as_number();
    const bool ecc = f.ber.ecc;
    const long retry = f.ber.read_attempts;
    const fault::FaultYieldResult r =
        fault::run_yield_with_faults(cfg, f.faults, f.ber, g_executor);
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
      for (const fault::SchemeBer& s : r.schemes) {
        Json j = Json::object();
        j.set("scheme", Json::string(s.scheme));
        j.set("raw_ber", Json::number(s.raw_ber));
        j.set("hard_bit_fraction", Json::number(s.hard_bit_fraction));
        j.set("post_ecc_wer", Json::number(s.post_ecc_wer));
        j.set("post_ecc_ber", Json::number(s.post_ecc_ber));
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
    for (const fault::SchemeBer& s : r.schemes) {
      t.add_row({s.scheme, format_double(s.raw_ber, 4),
                 format_double(s.hard_bit_fraction, 4),
                 format_double(s.post_ecc_wer, 4),
                 format_double(s.post_ecc_ber, 6)});
    }
    std::printf("%s", t.to_string().c_str());
    return 0;
  }

  const YieldConfig cfg = from_args([&] {
    return scenario::build_yield(args.params, YieldConfig{}.seed, names);
  });
  const YieldResult r = run_yield_experiment(cfg, g_executor);
  if (as_json) {
    Json out = Json::object();
    out.set("bits", Json::integer(static_cast<std::int64_t>(
                        cfg.geometry.cell_count())));
    out.set("sigma_common", Json::number(cfg.variation.sigma_common));
    Json schemes = Json::array();
    for (const SchemeRow& row : kSchemeTable) {
      const SchemeYield& y = r.scheme(row.id);
      Json s = Json::object();
      s.set("scheme", Json::string(y.scheme));
      s.set("failures",
            Json::integer(static_cast<std::int64_t>(y.failures)));
      s.set("failure_rate", Json::number(y.failure_rate()));
      s.set("sm_min_volts",
            Json::number(std::min(y.sm0_stats.min(), y.sm1_stats.min())));
      schemes.push_back(std::move(s));
    }
    out.set("schemes", std::move(schemes));
    std::printf("%s\n", out.dump(2).c_str());
    return 0;
  }
  TextTable t({"scheme", "bits", "failures", "rate"});
  for (const SchemeRow& row : kSchemeTable) {
    const SchemeYield& y = r.scheme(row.id);
    t.add_row({y.scheme, std::to_string(y.bits), std::to_string(y.failures),
               format_percent(y.failure_rate())});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_tail(const Tokens& tokens) {
  const CliArgs args = read_args(kTailArgs, "tail", tokens, "tail");
  const scenario::TailSetup t = from_args([&] {
    return scenario::build_tail(args.params, 1, scenario::cli_names(kTailArgs));
  });
  const TailEstimate e =
      estimate_margin_tail(t.config, t.seed, t.trials, g_executor);
  if (e.design_point.empty()) {
    std::printf("no failure region within 12 sigma\n");
    return 0;
  }
  std::printf("threshold %s: design point at %.2f sigma\n",
              format(t.config.threshold).c_str(), e.design_radius);
  std::printf("P(fail)/bit = %.3e (+- %.1e), E[fails in 16 kb] = %.3g\n",
              e.estimate.probability, e.estimate.std_error,
              e.expected_failures_16kb);
  return 0;
}

/// The optional stored-bit argument of read and transient (default 1).
bool bit_arg(const Tokens& tokens, const char* command) {
  const std::string bit = lone_arg(tokens, kBitArgs, command);
  return bit.empty() || arg_value(command, bit, scenario::ParamType::kInteger,
                                  Range::closed(0, 1))
                                .as_integer() == 1;
}

int cmd_read(const Tokens& tokens) {
  const bool bit = bit_arg(tokens, "read");
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

int cmd_transient(const Tokens& tokens) {
  SpiceReadConfig cfg;
  cfg.state = bit_arg(tokens, "transient") ? MtjState::kAntiParallel
                                           : MtjState::kParallel;
  const SpiceReadResult r = simulate_nondestructive_read(cfg);
  std::printf("stored %s -> sensed %d, V(C1)=%s V_BO=%s margin %s, "
              "decision at %s\n",
              to_string(cfg.state).data(), r.value, format(r.v_c1).c_str(),
              format(r.v_bo).c_str(), format(r.margin).c_str(),
              format(r.decision_time).c_str());
  return 0;
}

/// The fault/recovery rows of a traffic report whose run had a hook.
void add_fault_rows(TextTable& t, const engine::TrafficFaultStats& f) {
  t.add_row({"raw bit errors", std::to_string(f.raw_bit_errors)});
  t.add_row({"faulty reads", std::to_string(f.faulty_reads)});
  t.add_row({"retries", std::to_string(f.retries)});
  t.add_row({"ECC corrected", std::to_string(f.corrected_words)});
  t.add_row({"ECC uncorrectable", std::to_string(f.uncorrectable_words)});
  t.add_row({"silent corruptions", std::to_string(f.silent_corruptions)});
  t.add_row({"recovery latency", format(f.extra_latency)});
  t.add_row({"recovery energy", format(f.extra_energy)});
}

/// traffic --controller: the chip-scale run.
int run_controller(const CliArgs& args) {
  namespace ctrl = engine::controller;
  if (args.cli.count("--trace-file") > 0) {
    throw UsageError("--trace-file does not apply to 'traffic --controller'");
  }
  const scenario::TrafficSetup<ctrl::ControllerConfig> setup = from_args([&] {
    return scenario::build_controller(args.params, seed_arg(args, 1),
                                      scenario::cli_names(kTrafficArgs));
  });
  const ctrl::ControllerConfig& ctl = setup.config;
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
  if (r.faults_enabled) add_fault_rows(t, r.faults);
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

int cmd_traffic(const Tokens& tokens) {
  const bool controller =
      std::count(tokens.begin(), tokens.end(), "--controller") > 0;
  const CliArgs args = read_args(
      kTrafficArgs, controller ? "controller" : "traffic", tokens,
      controller ? "traffic --controller" : "traffic without --controller");
  if (controller) return run_controller(args);

  scenario::TrafficSetup<engine::TrafficConfig> setup = from_args([&] {
    return scenario::build_traffic(args.params, seed_arg(args, 1),
                                   scenario::cli_names(kTrafficArgs));
  });
  engine::TrafficConfig& cfg = setup.config;
  const auto trace_path = args.cli.find("--trace-file");
  if (trace_path != args.cli.end()) {
    std::ifstream in(trace_path->second);
    if (!in) {
      throw UsageError("cannot open trace file '" + trace_path->second +
                       "'");
    }
    cfg.trace = from_args([&] { return engine::load_trace_csv(in); });
    cfg.workload = engine::WorkloadKind::kTrace;
  } else if (args.cli.count("--workload") > 0) {
    throw UsageError("--workload trace requires --trace-file <csv>");
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
  if (r.faults_enabled) add_fault_rows(t, r.faults);
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_fault(const Tokens& tokens) {
  const CliArgs args = read_args(kFaultArgs, "march", tokens, "fault");
  const scenario::MarchSetup m = from_args([&] {
    return scenario::build_march(args.params, seed_arg(args, 1),
                                 scenario::cli_names(kFaultArgs));
  });
  const bool as_json = args.cli.count("--json") > 0;
  const std::uint64_t seed = m.seed;
  const ArrayGeometry& geometry = m.geometry;
  const std::size_t rows = geometry.rows;
  const std::size_t cols = geometry.cols;
  const double density = scenario::param_number(
      args.params, "density",
      schema_of("march").find("density")->fallback.as_number());
  const fault::FaultMap map =
      fault::generate_fault_map(geometry, m.faults, seed, g_executor);
  // No process variation: every flagged cell is then attributable to an
  // injected fault (extra_flags isolates scheme-induced misreads).
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams::none());

  // One March C- run per scheme with a read flow, in SchemeId order.
  std::vector<fault::MarchCoverageReport> runs;
  for (const SchemeRow& row : kSchemeTable) {
    if (!row.has_read_flow) continue;
    TestableArray array(geometry, variation, seed, SelfRefConfig{},
                        Volt(0.0));
    runs.push_back(fault::run_march_with_faults(array, map, row.id));
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
    for (const fault::MarchCoverageReport& run : runs) {
      Json s = Json::object();
      s.set("scheme", Json::string(scheme_row(run.scheme).label));
      s.set("operations",
            Json::integer(static_cast<std::int64_t>(run.operations)));
      s.set("detected",
            Json::integer(static_cast<std::int64_t>(run.detected_cells)));
      s.set("coverage", Json::number(run.coverage()));
      s.set("extra_flags",
            Json::integer(static_cast<std::int64_t>(run.extra_flags)));
      Json classes = Json::array();
      for (const fault::FaultClassCoverage& c : run.classes) {
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
  // One column per scheme: a row's first two cells, then `cell(run)`
  // for every run.
  std::vector<std::string> header = {"fault class", "injected"};
  for (const fault::MarchCoverageReport& run : runs) {
    header.emplace_back(scheme_row(run.scheme).key);
  }
  TextTable t(header);
  const auto add_row = [&](std::string first, std::string second,
                           const auto& cell) {
    std::vector<std::string> row = {std::move(first), std::move(second)};
    for (const fault::MarchCoverageReport& run : runs) {
      row.push_back(cell(run));
    }
    t.add_row(row);
  };
  for (const fault::FaultClassCoverage& c : runs[0].classes) {
    add_row(std::string(to_string(c.type)), std::to_string(c.injected),
            [&](const fault::MarchCoverageReport& run) {
              for (const fault::FaultClassCoverage& rc : run.classes) {
                if (rc.type == c.type) {
                  return std::to_string(rc.detected) + " (" +
                         format_percent(rc.coverage()) + ")";
                }
              }
              return std::string("-");
            });
  }
  add_row("total", std::to_string(runs[0].injected_cells),
          [](const fault::MarchCoverageReport& run) {
            return std::to_string(run.detected_cells) + " (" +
                   format_percent(run.coverage()) + ")";
          });
  add_row("extra flags", "-", [](const fault::MarchCoverageReport& run) {
    return std::to_string(run.extra_flags);
  });
  std::printf("%s", t.to_string().c_str());
  return 0;
}

/// A whole input file; a usage error names `what` when it cannot be
/// opened.
std::string input_file(const std::string& path, const char* what) {
  std::ifstream in(path);
  if (!in) {
    throw UsageError(std::string("cannot open ") + what + " '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int cmd_campaign(const Tokens& tokens) {
  if (tokens.empty()) {
    std::fprintf(stderr,
                 "usage: sttram_cli campaign {run|list|expand|verify} "
                 "[file] [--out <report>] [--golden <report>] [--json]\n");
    return 2;
  }
  const std::string& verb = tokens[0];

  if (verb == "list") {
    (void)lone_arg({tokens.begin() + 1, tokens.end()}, kNoArgs,
                   "campaign list");
    scenario::register_builtin_kinds();
    for (const scenario::ExperimentKind& kind :
         scenario::Registry::instance().kinds()) {
      std::printf("%s - %s\n%s", kind.name.c_str(), kind.description.c_str(),
                  kind.schema.describe().c_str());
    }
    return 0;
  }

  if (verb != "run" && verb != "expand" && verb != "verify") {
    throw UsageError("unknown campaign verb '" + verb +
                     "' (try one of run, list, expand, verify)");
  }

  const std::vector<CliArg>& table = verb == "run"      ? kCampaignRunArgs
                                     : verb == "expand" ? kCampaignExpandArgs
                                                        : kCampaignVerifyArgs;
  const CliArgs args = from_args([&] {
    return scenario::parse_cli_args(table, {}, {tokens.begin() + 1,
                                                tokens.end()},
                                    "campaign " + verb);
  });
  const auto arg = [&](const char* flag) {
    const auto it = args.cli.find(flag);
    return it == args.cli.end() ? std::string() : it->second;
  };
  const std::string campaign_path = arg("<file>");
  const std::string out_path = arg("--out");
  const std::string golden_path = arg("--golden");
  const bool as_json = args.cli.count("--json") > 0;
  if (campaign_path.empty()) {
    throw UsageError("campaign " + verb + " needs a campaign file");
  }
  if (verb == "verify" && golden_path.empty()) {
    throw UsageError("campaign verify needs --golden <report>");
  }

  // Every input is read and every instance checked against its kind's
  // schema before anything runs: a bad file or parameter exits 2.
  const scenario::CampaignSpec spec = from_args([&] {
    scenario::CampaignSpec s = scenario::parse_campaign_text(
        input_file(campaign_path, "campaign file"));
    scenario::register_builtin_kinds();
    for (const scenario::ScenarioInstance& inst :
         scenario::expand_campaign(s)) {
      scenario::validate_instance(inst);
    }
    return s;
  });
  std::optional<scenario::CampaignReport> golden;
  if (verb == "verify") {
    golden = from_args([&] {
      return scenario::CampaignReport::from_json(
          Json::parse(input_file(golden_path, "golden report")));
    });
  }

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
    const std::vector<scenario::MetricDiff> diffs =
        scenario::diff_reports(*golden, report, spec.tolerances);
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

int cmd_stats(const Tokens& tokens) {
  (void)lone_arg(tokens, kNoArgs, "stats");
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
  TextTable t({"metric", "value"});
  for (const auto& c : registry.counters()) {
    t.add_row({c.name, std::to_string(c.value)});
  }
  for (const auto& g : registry.gauges()) {
    t.add_row({g.name, format_double(g.value, 4)});
  }
  std::printf("%s", t.to_string().c_str());

  // Distributions, durations included, with the full percentile set.
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

/// The first "model name" of /proc/cpuinfo, else "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      const std::size_t start = line.find_first_not_of(" \t", colon + 1);
      if (start != std::string::npos) return line.substr(start);
    }
  }
  return "unknown";
}

/// Where a metrics file's numbers came from (build, host, run), so files
/// from two builds or machines are never compared unawares.
Json provenance(int argc, char** argv, std::int64_t threads) {
  std::string command_line = argv[0];
  for (int k = 1; k < argc; ++k) command_line += std::string(" ") + argv[k];
  Json p = Json::object();
  p.set("git_sha", Json::string(STTRAM_GIT_SHA));
  p.set("build_type", Json::string(STTRAM_BUILD_TYPE));
  p.set("compiler", Json::string(STTRAM_COMPILER_ID));
  p.set("simd_isa", Json::string(simd_isa_name(active_simd_isa())));
  p.set("threads", Json::integer(threads));
  p.set("host_cores", Json::integer(std::thread::hardware_concurrency()));
  p.set("cpu_model", Json::string(cpu_model()));
  p.set("command_line", Json::string(command_line));
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the global flags; everything else is forwarded to the
  // subcommand untouched, so numerical output is independent of them.
  std::string metrics_path;
  std::string trace_path;
  std::int64_t threads = 1;
  Tokens args;
  try {
    for (int k = 1; k < argc; ++k) {
      const std::string flag = argv[k];
      const bool is_metrics = flag == "--metrics";
      const bool is_trace = flag == "--trace";
      const bool is_threads = flag == "--threads";
      const bool is_simd = flag == "--simd";
      if (!(is_metrics || is_trace || is_threads || is_simd)) {
        args.push_back(flag);
        continue;
      }
      if (k + 1 >= argc) throw UsageError(flag + " requires a value");
      const std::string value = argv[++k];
      if (is_threads) {
        threads = arg_value("--threads", value, scenario::ParamType::kInteger,
                            Range::at_least(1))
                      .as_integer();
      } else if (is_simd) {
        SimdIsa isa = SimdIsa::kScalar;
        bool is_auto = false;
        if (!parse_simd_isa(value, &isa, &is_auto)) {
          throw UsageError("--simd: unrecognized value '" + value +
                           "' (expected auto|scalar|sse2|avx2|avx512|neon)");
        }
        if (is_auto) clear_simd_isa_override();
        else set_simd_isa_override(isa);
      } else {
        if (value.empty()) throw UsageError(flag + " requires a file path");
        (is_metrics ? metrics_path : trace_path) = value;
      }
    }
    // One file cannot hold both documents: the second write would
    // replace the first.
    if (!metrics_path.empty() && !trace_path.empty() &&
        std::filesystem::absolute(metrics_path).lexically_normal() ==
            std::filesystem::absolute(trace_path).lexically_normal()) {
      throw UsageError("--metrics and --trace name the same file '" +
                       trace_path + "'");
    }
    // Resolve the kernel ISA up front so a bogus STTRAM_SIMD value is a
    // usage error (exit 2) before any command output, not a mid-run
    // throw.
    (void)active_simd_isa();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  if (args.empty()) {
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

  const std::string& cmd = args[0];
  const Tokens rest(args.begin() + 1, args.end());
  // `<command> --help` and `campaign <verb> --help` print the command's
  // help page instead of running it.
  const auto help = kCommandHelp.find(
      rest.size() == 1 && rest[0] == "--help" ? cmd
      : cmd == "campaign" && rest.size() == 2 && rest[1] == "--help"
          ? "campaign " + rest[0]
          : "");
  int rc = 2;
  try {
    if (help != kCommandHelp.end()) {
      print_command_help(help->second);
      return 0;
    }
    if (cmd == "margins") rc = cmd_margins(rest);
    else if (cmd == "design") rc = cmd_design(rest);
    else if (cmd == "robustness") rc = cmd_robustness(rest);
    else if (cmd == "yield") rc = cmd_yield(rest);
    else if (cmd == "tail") rc = cmd_tail(rest);
    else if (cmd == "read") rc = cmd_read(rest);
    else if (cmd == "transient") rc = cmd_transient(rest);
    else if (cmd == "traffic") rc = cmd_traffic(rest);
    else if (cmd == "fault") rc = cmd_fault(rest);
    else if (cmd == "campaign") rc = cmd_campaign(rest);
    else if (cmd == "stats") rc = cmd_stats(rest);
    else if (cmd == "help" || cmd == "-h" || cmd == "--help") {
      print_help();
      rc = 0;
    } else {
      throw UsageError("unknown command '" + cmd +
                       "' (try one of margins, design, robustness, yield, "
                       "tail, read, transient, traffic, fault, campaign, "
                       "stats, help)");
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (!metrics_path.empty()) {
      obs::write_metrics_json(metrics_path, provenance(argc, argv, threads));
    }
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
