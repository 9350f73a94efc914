// Regression decks: real netlist files under tests/decks/ parsed and
// simulated end-to-end, with physics-level assertions per deck.  Guards
// the parser + engine combination against regressions the unit tests
// might miss.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/obs/metrics.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/parser.hpp"

#ifndef STTRAM_DECK_DIR
#define STTRAM_DECK_DIR "tests/decks"
#endif

namespace sttram {
namespace {

spice::ParsedDeck load(const std::string& name) {
  const std::string path = std::string(STTRAM_DECK_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing deck " << path;
  return spice::parse_spice_deck(in);
}

TEST(Decks, Divider) {
  auto deck = load("divider.sp");
  EXPECT_EQ(deck.title, "resistive divider regression deck");
  const auto sol = solve_dc(deck.circuit);
  EXPECT_NEAR(sol.voltage(deck.circuit.node("mid")), 4.0, 1e-6);
}

TEST(Decks, RcLowpass) {
  auto deck = load("rc_lowpass.sp");
  ASSERT_TRUE(deck.tran.has_value());
  const auto waves = run_transient(deck.circuit, *deck.tran);
  const auto out = deck.circuit.node("out");
  // tau = 1 ns: check the 1-tau point and the final value.
  EXPECT_NEAR(waves.voltage_at(out, 2.001e-9), 1.0 - std::exp(-1.0), 5e-3);
  EXPECT_NEAR(waves.final_voltage(out), 1.0, 1e-3);
}

TEST(Decks, ReadPhaseTwo) {
  auto deck = load("read_phase2.sp");
  ASSERT_TRUE(deck.tran.has_value());
  EXPECT_TRUE(deck.tran->adaptive);
  const auto waves = run_transient(deck.circuit, *deck.tran);
  const auto bl = deck.circuit.node("bl");
  const auto vbo = deck.circuit.node("vbo");
  // V_BL2 = I2 (R_H2 + R_T(I2)) with the level-1 NMOS at ~1070 Ohm.
  const double v_bl = waves.final_voltage(bl);
  EXPECT_GT(v_bl, 200e-6 * (1900.0 + 950.0));
  EXPECT_LT(v_bl, 200e-6 * (1900.0 + 1250.0));
  // The symmetric 10M/10M divider halves it.
  EXPECT_NEAR(waves.final_voltage(vbo), 0.5 * v_bl, 0.01 * v_bl);
}

TEST(Decks, MtjIvSweep) {
  auto deck = load("mtj_iv.sp");
  ASSERT_TRUE(deck.dc.has_value());
  ASSERT_EQ(deck.dc->values.size(), 20u);
  const auto pts =
      dc_sweep(deck.circuit, deck.dc->source, deck.dc->values);
  const LinearRiModel model(MtjParams::paper_calibrated());
  const auto bl = deck.circuit.node("bl");
  for (std::size_t k = 0; k < pts.size(); ++k) {
    const double i = deck.dc->values[k];
    const double r = pts[k].voltage(bl) / i;
    EXPECT_NEAR(
        r,
        model.resistance(MtjState::kAntiParallel, Ampere(i)).value(),
        2.0)
        << "I=" << i;
  }
}

// Exact outputs of every deck's analysis, recorded as hex floats: the
// .tran waveform's sample count and final sample, else the .dc sweep's
// point count and last point, else the one DC operating point; and the
// solver counters' deltas.  These decks run the LU at orders 1, 3 and 5
// (the run-time-order body; the read circuits' orders 7 and 8 are
// pinned by SpiceRead.OutputsAreBitPinned).  Two are adaptive
// transients: read_phase2.sp only grows its step, and rc_edge.sp's
// ramp end breaks the linear predictor, so it rejects steps and pins
// run_transient's halving of a rejected one.
struct PinnedDeck {
  const char* file;
  std::size_t samples;
  std::vector<double> final_sample;
  std::array<std::uint64_t, 5> counters;  ///< kSolverCounters deltas
};

constexpr const char* kSolverCounters[5] = {
    "spice.newton.iterations", "spice.newton.solves",
    "spice.newton.factorizations", "spice.transient.steps_accepted",
    "spice.transient.steps_rejected"};

const PinnedDeck kPinnedDecks[] = {
    {"divider.sp", 1,
     {0x1.4p+3, 0x1.ffffffeb62582p+1, -0x1.0624dd621f101p-10},
     {1, 1, 1, 0, 0}},
    {"mtj_iv.sp", 20,
     {0x1.851eb8496ee29p-2},
     {102, 20, 102, 0, 0}},
    {"rc_lowpass.sp", 804,
     {0x1p+0, 0x1.ff886cc3b7c8fp-1, -0x1.e9c7c2092bp-21},
     {804, 804, 804, 803, 0}},
    {"read_phase2.sp", 56,
     {0x1.300a63374091p-1, 0x1.b600595d5a3cep-3, 0x1.3333333333333p+0,
      0x1.3009ff969b8cfp-2, -0x1.51c51ce3718e1p-40},
     {119, 56, 119, 55, 0}},
    {"rc_edge.sp", 365,
     {0x1p+0, 0x1.e568b47aee348p-1, -0x1.b3aab931b765p-15},
     {381, 381, 381, 364, 16}},
};

TEST(Decks, OutputsAreBitPinned) {
  auto& registry = obs::Registry::instance();
  obs::set_metrics_enabled(true);
  for (const PinnedDeck& want : kPinnedDecks) {
    std::array<std::uint64_t, 5> before{};
    for (std::size_t k = 0; k < 5; ++k) {
      before[k] = registry.counter(kSolverCounters[k]).value();
    }
    auto deck = load(want.file);
    std::size_t samples = 1;
    std::vector<double> last;
    if (deck.tran.has_value()) {
      const auto waves = run_transient(deck.circuit, *deck.tran);
      samples = waves.sample_count();
      const auto x = waves.sample(samples - 1);
      last.assign(x.begin(), x.end());
    } else if (deck.dc.has_value()) {
      const auto points =
          dc_sweep(deck.circuit, deck.dc->source, deck.dc->values);
      samples = points.size();
      last = points.back().x;
    } else {
      last = solve_dc(deck.circuit).x;
    }
    std::array<std::uint64_t, 5> counters{};
    for (std::size_t k = 0; k < 5; ++k) {
      counters[k] = registry.counter(kSolverCounters[k]).value() - before[k];
    }
    bool same = samples == want.samples && counters == want.counters &&
                last.size() == want.final_sample.size();
    for (std::size_t k = 0; same && k < last.size(); ++k) {
      same = std::bit_cast<std::uint64_t>(last[k]) ==
             std::bit_cast<std::uint64_t>(want.final_sample[k]);
    }
    // On a mismatch, print the row as it reads now.
    std::ostringstream row;
    row << std::hexfloat << "{\"" << want.file << "\", " << samples << ",\n {";
    for (std::size_t k = 0; k < last.size(); ++k) {
      row << (k == 0 ? "" : ", ") << last[k];
    }
    row << "},\n {";
    for (std::size_t k = 0; k < 5; ++k) {
      row << (k == 0 ? "" : ", ") << counters[k];
    }
    row << "}},";
    EXPECT_TRUE(same) << want.file << " now reads\n" << row.str();
  }
  obs::set_metrics_enabled(false);
  EXPECT_EQ(std::size(kPinnedDecks), 5u);
}

}  // namespace
}  // namespace sttram
