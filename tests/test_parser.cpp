// Tests for the SPICE-deck parser: number suffixes, card parsing, source
// waveforms, directives, error reporting, and end-to-end deck
// simulation.
#include <gtest/gtest.h>

#include <string>

#include "sttram/common/error.hpp"
#include "sttram/spice/analysis.hpp"
#include "sttram/spice/parser.hpp"

namespace sttram {
namespace {

using sttram::CircuitError;
using spice::parse_spice_deck;
using spice::parse_spice_number;

TEST(SpiceNumber, SiSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("250f"), 250e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5p"), 2.5e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("15n"), 15e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("200u"), 200e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1.5m"), 1.5e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("917"), 917.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5k"), 2500.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("10MEG"), 1e7);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("-3.3u"), -3.3e-6);
  EXPECT_THROW(parse_spice_number("abc"), CircuitError);
  EXPECT_THROW(parse_spice_number("1x"), CircuitError);
  EXPECT_THROW(parse_spice_number(""), CircuitError);
}

TEST(SpiceNumber, RejectsNonFiniteValuesNamingTheToken) {
  for (const char* bad : {"1e999", "-1e999", "1e303meg", "1e305t", "inf",
                          "nan", "0x10"}) {
    try {
      (void)parse_spice_number(bad);
      ADD_FAILURE() << bad << " parsed";
    } catch (const CircuitError& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  // A deck with such a value fails at its line instead of solving.
  EXPECT_THROW(parse_spice_deck("* div\nV1 in 0 1\nR1 in mid 1e999\n"
                                "R2 mid 0 1k\n.end\n"),
               CircuitError);
  EXPECT_DOUBLE_EQ(parse_spice_number("1e300meg"), 1e306);
}

TEST(SpiceParser, DividerDeckEndToEnd) {
  const std::string deck_text = R"(divider test
V1 in 0 10
R1 in mid 6k
R2 mid 0 4k
.end
)";
  auto deck = parse_spice_deck(deck_text);
  EXPECT_EQ(deck.title, "divider test");
  EXPECT_EQ(deck.circuit.element_count(), 3u);
  const auto sol = solve_dc(deck.circuit);
  EXPECT_NEAR(sol.voltage(deck.circuit.node("mid")), 4.0, 1e-6);
}

TEST(SpiceParser, RcTransientWithTranDirective) {
  const std::string deck_text = R"(rc step
V1 in 0 PWL(0 0 1n 0 1.001n 1)
R1 in out 1k
C1 out 0 1p
.tran 10p 6n trap
)";
  auto deck = parse_spice_deck(deck_text);
  ASSERT_TRUE(deck.tran.has_value());
  EXPECT_EQ(deck.tran->integrator, spice::Integrator::kTrapezoidal);
  EXPECT_DOUBLE_EQ(deck.tran->dt, 10e-12);
  EXPECT_DOUBLE_EQ(deck.tran->t_stop, 6e-9);
  const auto waves = run_transient(deck.circuit, *deck.tran);
  EXPECT_NEAR(waves.final_voltage(deck.circuit.node("out")), 1.0, 1e-2);
}

TEST(SpiceParser, ContinuationLinesAndComments) {
  const std::string deck_text =
      "* a comment-only first line\n"
      "V1 a 0 PWL(0 0\n"
      "+ 1n 1)\n"
      "R1 a 0 1k * trailing comment\n";
  auto deck = parse_spice_deck(deck_text);
  EXPECT_EQ(deck.circuit.element_count(), 2u);
  EXPECT_TRUE(deck.title.empty());
}

TEST(SpiceParser, SwitchCardWithEvents) {
  const std::string deck_text = R"(V1 a 0 1
S1 a b ron=50 events=1n:on,5n:off
R1 b 0 1k
.tran 50p 8n
)";
  auto deck = parse_spice_deck(deck_text);
  const auto waves = run_transient(deck.circuit, *deck.tran);
  const auto b = deck.circuit.node("b");
  EXPECT_NEAR(waves.voltage_at(b, 0.5e-9), 0.0, 1e-3);
  EXPECT_NEAR(waves.voltage_at(b, 3e-9), 1000.0 / 1050.0, 1e-3);
  EXPECT_NEAR(waves.voltage_at(b, 7e-9), 0.0, 1e-3);
}

TEST(SpiceParser, MosfetAndMtjCards) {
  // The 1T1J read path as a deck: forced current through the calibrated
  // MTJ (AP state) and an access NMOS.
  const std::string deck_text = R"(1t1j cell
I1 0 bl 200u
Jmtj bl mid MTJ state=ap
M1 mid g 0 NMOS beta=1.454m vth=0.45 lambda=0
Vg g 0 1.2
)";
  auto deck = parse_spice_deck(deck_text);
  const auto sol = solve_dc(deck.circuit);
  const double v_bl = sol.voltage(deck.circuit.node("bl"));
  // R_AP(200 uA) = 1900 plus the NMOS triode resistance (~1070).
  EXPECT_GT(v_bl, 200e-6 * (1900.0 + 900.0));
  EXPECT_LT(v_bl, 200e-6 * (1900.0 + 1300.0));
}

TEST(SpiceParser, PulseSource) {
  const std::string deck_text = R"(I1 0 n PULSE(0 1m 1n 3n)
R1 n 0 1k
.tran 20p 5n
)";
  auto deck = parse_spice_deck(deck_text);
  const auto waves = run_transient(deck.circuit, *deck.tran);
  const auto n = deck.circuit.node("n");
  EXPECT_NEAR(waves.voltage_at(n, 2e-9), 1.0, 1e-3);
  EXPECT_NEAR(waves.voltage_at(n, 4.5e-9), 0.0, 1e-3);
}

TEST(SpiceParser, ErrorsCarryLineNumbers) {
  try {
    parse_spice_deck("decent title\nR1 a b\n");
    FAIL() << "expected CircuitError";
  } catch (const CircuitError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_spice_deck("title\nX1 a b 5\nR1 a 0 1k\n"), CircuitError);
  EXPECT_THROW(parse_spice_deck("title\n.bogus\n"), CircuitError);
  EXPECT_THROW(parse_spice_deck("title\nS1 a b events=1n:maybe\n"),
               CircuitError);
  EXPECT_THROW(parse_spice_deck("title\nV1 a 0 PWL(0 0\n"), CircuitError);
  EXPECT_THROW(parse_spice_deck("+ continuation first\n"), CircuitError);
}

TEST(SpiceParser, DcSweepDirective) {
  auto deck = parse_spice_deck(R"(1t1j iv sweep
Iread 0 bl 0
Jmtj bl 0 MTJ state=ap
.dc Iread 0 200u 50u
)");
  ASSERT_TRUE(deck.dc.has_value());
  EXPECT_EQ(deck.dc->source, "Iread");
  ASSERT_EQ(deck.dc->values.size(), 5u);
  EXPECT_DOUBLE_EQ(deck.dc->values.back(), 200e-6);
  const auto pts = dc_sweep(deck.circuit, deck.dc->source, deck.dc->values);
  // R drops from 2500 (at ~0) to 1900 at 200 uA.
  const auto bl = deck.circuit.node("bl");
  EXPECT_NEAR(pts[4].voltage(bl) / 200e-6, 1900.0, 5.0);
  EXPECT_THROW(parse_spice_deck("t\n.dc V1 0 1\n"), CircuitError);
  EXPECT_THROW(parse_spice_deck("t\n.dc V1 0 1 -0.1\n"), CircuitError);
}

TEST(SpiceParser, AdaptiveTranOption) {
  auto deck = parse_spice_deck("R1 a 0 1k\n.tran 10p 1n adaptive=1e-4\n");
  ASSERT_TRUE(deck.tran.has_value());
  EXPECT_TRUE(deck.tran->adaptive);
  EXPECT_DOUBLE_EQ(deck.tran->lte_tol, 1e-4);
}

}  // namespace
}  // namespace sttram
