// sttram_paper <section>: runs one section of the paper's evaluation
// (paper.hpp) and exits 0, 1 after a missed claim row, or 2 for a
// missing or unknown section, listing the sections on stderr.
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <set>

#include "paper.hpp"
#include "sttram/common/error.hpp"

namespace sttram::bench {
namespace {

struct Registry {
  std::map<std::string, void (*)()> sections;
  std::string source;  // the current heading's id
  std::set<std::string> ids;
  int missed = 0;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Prints a row under its unique id: text, the row's numbers, verdict.
void record(const std::string& id, const std::string& text,
            const std::string& numbers, bool holds) {
  Registry& r = registry();
  require(r.ids.insert(id).second, "claim row id used twice: " + id);
  std::printf("  %-24s %-*s %s[%s]\n", id.c_str(), numbers.empty() ? 60 : 44,
              text.c_str(), numbers.c_str(), holds ? "REPRODUCED" : "MISS");
  if (holds) return;
  std::fprintf(stderr, "sttram_paper: missed %s (%s): %s\n", id.c_str(),
               r.source.c_str(), text.c_str());
  ++r.missed;
}

}  // namespace

void heading(const std::string& id, const std::string& title) {
  registry().source = id;
  const char* rule =
      "================================================================";
  std::printf("\n%s\n%s — %s\n%s\n", rule, id.c_str(), title.c_str(), rule);
}

void row(const std::string& id, const std::string& text, double paper,
         double measured, const std::string& unit, Tolerance tol) {
  const bool frac = tol.kind == Tolerance::Kind::kFrac;
  const double rel = paper != 0.0 ? (measured - paper) / paper * 100.0 : 0.0;
  record(id, text,
         fmt("paper %10.4g %-5s measured %10.4g %-5s (%+.1f %%) tol %s %g ",
             paper, unit.c_str(), measured, unit.c_str(), rel,
             frac ? "frac" : "abs", tol.value),
         std::fabs(measured - paper) <=
             (frac ? tol.value * std::fabs(paper) : tol.value));
}

void row(const std::string& id, const std::string& text, bool holds) {
  record(id, text, "", holds);
}

void row(const std::string& id, const std::string& text, double measured,
         const std::string& unit, bool holds) {
  record(id, text,
         fmt("paper %10s %-5s measured %10.4g %-5s ", "-", unit.c_str(),
             measured, unit.c_str()),
         holds);
}

std::string fmt(const char* format, ...) {
  char text[128];
  va_list args;
  va_start(args, format);
  std::vsnprintf(text, sizeof(text), format, args);
  va_end(args);
  return text;
}

const PaperDesign& paper_design() {
  static const PaperDesign design;
  return design;
}

SectionRegistrar::SectionRegistrar(const std::string& name, void (*run)()) {
  require(registry().sections.emplace(name, run).second,
          "paper section defined twice: " + name);
}

}  // namespace sttram::bench

int main(int argc, char** argv) {
  const sttram::bench::Registry& r = sttram::bench::registry();
  const auto section = argc == 2 ? r.sections.find(argv[1]) : r.sections.end();
  if (section == r.sections.end()) {
    std::fprintf(stderr, "usage: sttram_paper <section>\nsections:\n");
    for (const auto& [name, run] : r.sections) {
      std::fprintf(stderr, "  %s\n", name.c_str());
    }
    return 2;
  }
  section->second();
  return r.missed > 0 ? 1 : 0;
}
