// Parser for a small SPICE-style netlist dialect, so circuits can be
// described as text decks and run through the MNA engine (see
// examples/netlist_runner.cpp for a standalone mini-SPICE).
//
// Supported card types (case-insensitive, one per line, '*' comments,
// '+' continuation):
//   Rname a b <value>
//   Cname a b <value>
//   Vname p n <dc-value> | PWL(t0 v0 t1 v1 ...) | PULSE(v0 v1 t_on t_off
//                                                       [rise fall])
//   Iname from to <same source forms as V>
//   Mname d g s NMOS [beta=..] [vth=..] [lambda=..]
//   Sname a b [ron=..] [roff=..] [state0] [events=t:on,t:off,...]
//   Jname a b MTJ [state=p|ap]        (the calibrated MTJ element)
//   .tran <dt> <t_stop> [trap] [adaptive[=lte]]
//   .dc <source> <start> <stop> <step>   (at most 1e6 points)
//   .end
// Numbers accept SI suffixes: f p n u m k meg g t (e.g. 250f, 1.2k).
#pragma once

#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "sttram/spice/analysis.hpp"
#include "sttram/spice/circuit.hpp"

namespace sttram::spice {

/// A parsed .dc sweep directive: .dc <source> <start> <stop> <step>.
struct DcSweepSpec {
  std::string source;
  std::vector<double> values;
};

/// A parsed deck: the circuit plus any .tran / .dc directive found.
struct ParsedDeck {
  Circuit circuit;
  std::optional<TransientOptions> tran;
  std::optional<DcSweepSpec> dc;
  std::string title;  ///< first line when it is not a card
};

/// Parses a deck from text.  Throws CircuitError with a line number on
/// malformed input.
ParsedDeck parse_spice_deck(const std::string& text);
ParsedDeck parse_spice_deck(std::istream& in);

/// Parses one SPICE number with optional SI suffix ("250f" -> 2.5e-13,
/// "1meg" -> 1e6).  The mantissa is a strict decimal token
/// (common/token.hpp).  Throws CircuitError naming the token on garbage,
/// an unknown suffix or a value that is not finite, before or after the
/// SI scaling ("1e999", "1e300meg").
double parse_spice_number(const std::string& token);

}  // namespace sttram::spice
