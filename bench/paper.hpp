// The paper program's claim rows, nominal design and sections.
//
// `sttram_paper <section>` prints one table, figure, ablation or
// extension of the paper's evaluation and then one claim row per paper
// number or qualitative claim.  A row has an id (its section's prefix, a
// dot and a name, unique; docs cite it), text, and either the paper and
// measured values within a tolerance or a predicate on the run; the
// heading names its source.  A missed row makes the program exit 1.
// Stdout carries simulated quantities only (ctest compares it with
// bench/golden/<section>.txt); host timings go to stderr.
#pragma once

#include <chrono>
#include <string>

#include "sttram/device/mtj_params.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/sense/margins.hpp"

namespace sttram::bench {

/// How far a measured value may sit from the paper's: a fraction of the
/// paper value or an absolute distance in the row's unit.
struct Tolerance {
  enum class Kind { kFrac, kAbs } kind;
  double value;
  static constexpr Tolerance frac(double v) { return {Kind::kFrac, v}; }
  static constexpr Tolerance abs(double v) { return {Kind::kAbs, v}; }
};

/// Prints the section banner; `id` ("Fig. 7") is its rows' source.
void heading(const std::string& id, const std::string& title);
/// A paper number: `measured` must lie within `tol` of `paper`.
void row(const std::string& id, const std::string& text, double paper,
         double measured, const std::string& unit, Tolerance tol);
/// A qualitative claim decided by a predicate on the run.
void row(const std::string& id, const std::string& text, bool holds);
/// A qualitative claim pinning a number the paper gives no value for.
void row(const std::string& id, const std::string& text, double measured,
         const std::string& unit, bool holds);

/// printf into a string, for table cells.
[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...);

/// Appends the point (x, y) to a plot series.
inline void add_point(PlotSeries& series, double x, double y) {
  series.xs.push_back(x);
  series.ys.push_back(y);
}

/// Host seconds since `start`, for the timings printed to stderr.
inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The paper's nominal design (Table I): the calibrated device behind
/// R_T = 917 Ohm, I_max = 200 uA, alpha = 0.5, and both self-reference
/// schemes on it.
struct PaperDesign {
  MtjParams mtj = MtjParams::paper_calibrated();
  Ohm r_t{917.0};
  SelfRefConfig config;
  DestructiveSelfReference destructive{mtj, r_t, config};
  NondestructiveSelfReference nondestructive{mtj, r_t, config};
};
const PaperDesign& paper_design();

/// Registers a section; STTRAM_PAPER_SECTION defines one.
struct SectionRegistrar {
  SectionRegistrar(const std::string& name, void (*run)());
};

}  // namespace sttram::bench

/// Defines section `name`, run by `sttram_paper name`.  The body is in
/// namespace sttram::bench, so it names rows and the design unqualified.
#define STTRAM_PAPER_SECTION(name)                                  \
  namespace sttram::bench::sections {                               \
  void name();                                                      \
  static const SectionRegistrar name##_registrar(#name, &name);     \
  }                                                                 \
  void sttram::bench::sections::name()
