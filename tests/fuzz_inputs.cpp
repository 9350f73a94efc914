// Seeded mutation test over the four untrusted-input parsers: campaign
// JSON (through expansion, schema validation and the kinds' builders),
// SPICE decks, trace CSV and command lines read through a kind's table.
// Every mutant must either parse or throw sttram::Error; any other
// exception fails the test, and a crash or sanitizer report fails it
// under the ASan/UBSan build.  Fixed seed and a fixed mutant count keep
// it under 2 s, sanitized builds included.
//
//   fuzz_inputs <repo root>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/common/token.hpp"
#include "sttram/engine/workload.hpp"
#include "sttram/io/json.hpp"
#include "sttram/scenario/builders.hpp"
#include "sttram/scenario/registry.hpp"
#include "sttram/scenario/scenario.hpp"
#include "sttram/spice/parser.hpp"
#include "sttram/stats/rng.hpp"

namespace {

namespace sc = sttram::scenario;
using sttram::Json;

/// Number tokens the mutator swaps in: signs, zero, large, overflowing,
/// non-finite, trailing junk and empty.
const char* const kSwaps[] = {"-1", "0", "1e5", "1e30", "1e999",
                              "nan", "2x", ""};

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.next_u64() % n);
  }

  /// One to three edits: a bit flip in a byte, or a number token
  /// replaced by one of kSwaps.
  std::string text(std::string s) {
    for (std::size_t edits = 1 + below(3); edits > 0 && !s.empty();
         --edits) {
      const std::vector<std::pair<std::size_t, std::size_t>> numbers =
          number_spans(s);
      if (below(2) == 0 || numbers.empty()) {
        s[below(s.size())] ^= static_cast<char>(1u << below(8));
      } else {
        const auto [at, length] = numbers[below(numbers.size())];
        s.replace(at, length, swap());
      }
    }
    return s;
  }

  std::string swap() { return kSwaps[below(std::size(kSwaps))]; }

 private:
  static std::vector<std::pair<std::size_t, std::size_t>> number_spans(
      const std::string& s) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = 0; i < s.size();) {
      const std::size_t n = sttram::scan_number(std::string_view(s).substr(i));
      if (n > 0) out.emplace_back(i, n);
      i += n > 0 ? n : 1;
    }
    return out;
  }

  sttram::Xoshiro256 rng_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Builds the library config of `kind` from validated params.
void build(const std::string& kind, const Json& params) {
  if (kind == "yield") (void)sc::build_yield(params, 1);
  if (kind == "tail") (void)sc::build_tail(params, 1);
  if (kind == "traffic") (void)sc::build_traffic(params, 1);
  if (kind == "controller") (void)sc::build_controller(params, 1);
  if (kind == "fault_overlay") (void)sc::build_fault_overlay(params, 1);
  if (kind == "march") (void)sc::build_march(params, 1);
}

int failures = 0;
int accepted = 0;
int refused = 0;

/// Runs `parse` on one mutant: parsing or a sttram::Error is fine.
void check(const char* surface, const std::string& input,
           const std::function<void()>& parse) {
  try {
    parse();
    ++accepted;
  } catch (const sttram::Error&) {
    ++refused;
  } catch (const std::exception& e) {
    ++failures;
    std::fprintf(stderr, "FAIL %s: %s threw %s\n--- input ---\n%s\n---\n",
                 surface, typeid(e).name(), e.what(), input.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: fuzz_inputs <repo root>\n");
    return 2;
  }
  const std::string root = argv[1];
  Mutator m(20100308);
  sc::register_builtin_kinds();

  for (const char* name :
       {"smoke", "fig11_yield", "controller", "traffic_fault_sweep"}) {
    const std::string text =
        read_file(root + "/examples/campaigns/" + name + ".json");
    for (int i = 0; i < 200; ++i) {
      const std::string mutant = m.text(text);
      check("campaign", mutant, [&] {
        const sc::CampaignSpec spec = sc::parse_campaign_text(mutant);
        for (const sc::ScenarioInstance& inst : sc::expand_campaign(spec)) {
          sc::validate_instance(inst);
          build(inst.kind, inst.params);
        }
      });
    }
  }

  for (const char* deck :
       {"divider.sp", "mtj_iv.sp", "rc_lowpass.sp", "read_phase2.sp"}) {
    const std::string text = read_file(root + "/tests/decks/" + deck);
    for (int i = 0; i < 200; ++i) {
      const std::string mutant = m.text(text);
      check("deck", mutant,
            [&] { (void)sttram::spice::parse_spice_deck(mutant); });
    }
  }

  const std::string trace =
      "arrival_s,op,bank\n0,R,0\n1e-8,W,1\n2e-8,read,0\n2.5e-8,w,3\n";
  for (int i = 0; i < 400; ++i) {
    const std::string mutant = m.text(trace);
    check("trace", mutant, [&] {
      std::istringstream in(mutant);
      (void)sttram::engine::load_trace_csv(in);
    });
  }

  // Command lines: every field of every kind as a "--<field> <default>"
  // flag pair, read through a table of those flags.
  for (const sc::ExperimentKind& kind : sc::Registry::instance().kinds()) {
    std::vector<sc::CliArg> table;
    std::vector<std::string> flags;
    std::vector<std::string> tokens;
    for (const sc::ParamField& f : kind.schema.fields()) {
      flags.push_back("--" + f.name);
      const Json& d = f.fallback;
      tokens.push_back(flags.back());
      tokens.push_back(d.is_null()     ? "1"
                       : d.is_string() ? d.as_string()
                                       : d.dump());
    }
    for (std::size_t k = 0; k < flags.size(); ++k) {
      table.push_back(
          {flags[k].c_str(), kind.schema.fields()[k].name.c_str()});
    }
    for (int i = 0; i < 150; ++i) {
      std::vector<std::string> argv_mutant = tokens;
      std::string& victim = argv_mutant[m.below(argv_mutant.size())];
      victim = m.below(2) == 0 ? m.swap() : m.text(victim);
      if (m.below(8) == 0) argv_mutant.pop_back();
      std::string shown;
      for (const std::string& t : argv_mutant) shown += t + " ";
      check("command line", shown, [&] {
        const sc::CliArgs args =
            sc::parse_cli_args(table, kind.schema, argv_mutant, kind.name);
        build(kind.name, args.params);
      });
    }
  }

  std::printf("fuzz_inputs: %d mutants parsed, %d refused with an Error, "
              "%d failures\n",
              accepted, refused, failures);
  return failures == 0 ? 0 : 1;
}
