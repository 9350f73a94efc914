#include "sttram/spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/common/token.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/spice/elements.hpp"

namespace sttram::spice {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

constexpr std::size_t kMaxDcPoints = 1000000;

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw CircuitError("netlist line " + std::to_string(line) + ": " +
                     message);
}

/// Splits a card into tokens; parentheses groups like PWL(0 0 1n 1) stay
/// one token.
std::vector<std::string> tokenize(const std::string& card,
                                  std::size_t line) {
  std::vector<std::string> tokens;
  std::string current;
  int depth = 0;
  for (const char ch : card) {
    if (ch == '(') ++depth;
    if (ch == ')') --depth;
    if (depth < 0) fail(line, "unbalanced ')'");
    if ((ch == ' ' || ch == '\t') && depth == 0) {
      if (!current.empty()) {
        tokens.push_back(current);
        current.clear();
      }
    } else {
      current += ch;
    }
  }
  if (depth != 0) fail(line, "unbalanced '('");
  if (!current.empty()) tokens.push_back(current);
  return tokens;
}

/// key=value split; returns empty key when there is no '='.
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return {"", token};
  return {lower(token.substr(0, eq)), token.substr(eq + 1)};
}

/// Builds a waveform from a source token list (everything after the two
/// node names).
std::unique_ptr<Waveform> parse_source(const std::vector<std::string>& args,
                                       std::size_t line) {
  if (args.empty()) fail(line, "source needs a value or waveform");
  const std::string spec = args[0];
  const std::string head = lower(spec.substr(0, spec.find('(')));
  if (head == "pwl") {
    const auto open = spec.find('(');
    const auto close = spec.rfind(')');
    if (open == std::string::npos || close == std::string::npos) {
      fail(line, "malformed PWL(...)");
    }
    std::istringstream inner(spec.substr(open + 1, close - open - 1));
    std::vector<double> ts, vs;
    std::string a, b;
    while (inner >> a >> b) {
      ts.push_back(parse_spice_number(a));
      vs.push_back(parse_spice_number(b));
    }
    if (ts.empty()) fail(line, "PWL needs at least one (t v) pair");
    return std::make_unique<PwlWaveform>(std::move(ts), std::move(vs));
  }
  if (head == "pulse") {
    const auto open = spec.find('(');
    const auto close = spec.rfind(')');
    std::istringstream inner(spec.substr(open + 1, close - open - 1));
    std::vector<double> v;
    std::string tok;
    while (inner >> tok) v.push_back(parse_spice_number(tok));
    if (v.size() != 4 && v.size() != 6) {
      fail(line, "PULSE needs (v0 v1 t_on t_off [rise fall])");
    }
    const double rise = v.size() == 6 ? v[4] : 0.0;
    const double fall_t = v.size() == 6 ? v[5] : 0.0;
    return std::make_unique<PulseWaveform>(v[0], v[1], v[2], v[3], rise,
                                           fall_t);
  }
  return std::make_unique<DcWaveform>(parse_spice_number(spec));
}

}  // namespace

double parse_spice_number(const std::string& token) {
  if (token.empty()) throw CircuitError("empty number");
  const std::size_t length = scan_number(token);
  if (length == 0) throw CircuitError("not a number: '" + token + "'");
  const std::optional<double> base =
      parse_number(std::string_view(token).substr(0, length));
  if (!base) throw CircuitError("non-finite number '" + token + "'");
  const std::string suffix = lower(token.substr(length));
  double scale = 1.0;
  if (suffix == "f") scale = 1e-15;
  else if (suffix == "p") scale = 1e-12;
  else if (suffix == "n") scale = 1e-9;
  else if (suffix == "u") scale = 1e-6;
  else if (suffix == "m") scale = 1e-3;
  else if (suffix == "k") scale = 1e3;
  else if (suffix == "meg") scale = 1e6;
  else if (suffix == "g") scale = 1e9;
  else if (suffix == "t") scale = 1e12;
  else if (!suffix.empty()) {
    throw CircuitError("unknown SI suffix '" + suffix + "' in '" + token +
                       "'");
  }
  const double value = *base * scale;
  if (!std::isfinite(value)) {
    throw CircuitError("number '" + token + "' overflows after SI scaling");
  }
  return value;
}

ParsedDeck parse_spice_deck(std::istream& in) {
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return parse_spice_deck(text);
}

ParsedDeck parse_spice_deck(const std::string& text) {
  ParsedDeck deck;
  // Join continuation lines ('+' prefix) and drop comments.
  std::vector<std::pair<std::size_t, std::string>> cards;
  std::istringstream stream(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    // Strip trailing comments and whitespace.
    const auto star = raw.find('*');
    if (star != std::string::npos) raw = raw.substr(0, star);
    while (!raw.empty() && (raw.back() == '\r' || raw.back() == ' ' ||
                            raw.back() == '\t')) {
      raw.pop_back();
    }
    std::size_t start = 0;
    while (start < raw.size() && (raw[start] == ' ' || raw[start] == '\t')) {
      ++start;
    }
    raw = raw.substr(start);
    if (raw.empty()) continue;
    if (raw[0] == '+') {
      if (cards.empty()) fail(line_no, "continuation with no prior card");
      cards.back().second.append(" ").append(raw, 1);
    } else {
      cards.emplace_back(line_no, raw);
    }
  }

  bool first = true;
  for (const auto& [line, card] : cards) {
    const auto tokens = tokenize(card, line);
    if (tokens.empty()) continue;
    const std::string head = lower(tokens[0]);

    if (head == ".end") break;
    if (head == ".tran") {
      if (tokens.size() < 3) fail(line, ".tran needs <dt> <t_stop>");
      TransientOptions opt;
      opt.dt = parse_spice_number(tokens[1]);
      opt.t_stop = parse_spice_number(tokens[2]);
      for (std::size_t k = 3; k < tokens.size(); ++k) {
        const auto [key, value] = split_kv(tokens[k]);
        const std::string flag = lower(value);
        if (flag == "trap") {
          opt.integrator = Integrator::kTrapezoidal;
        } else if (key == "adaptive" || flag == "adaptive") {
          opt.adaptive = true;
          if (!key.empty()) opt.lte_tol = parse_spice_number(value);
        } else {
          fail(line, "unknown .tran option '" + tokens[k] + "'");
        }
      }
      deck.tran = opt;
      first = false;
      continue;
    }
    if (head == ".dc") {
      if (tokens.size() != 5) {
        fail(line, ".dc needs <source> <start> <stop> <step>");
      }
      DcSweepSpec spec;
      spec.source = tokens[1];
      const double start = parse_spice_number(tokens[2]);
      const double stop = parse_spice_number(tokens[3]);
      const double step = parse_spice_number(tokens[4]);
      if (step == 0.0 || (stop - start) * step < 0.0) {
        fail(line, ".dc step must move start toward stop");
      }
      for (double v = start;
           step > 0.0 ? v <= stop + 1e-15 * std::fabs(stop)
                      : v >= stop - 1e-15 * std::fabs(stop);
           v += step) {
        spec.values.push_back(v);
        // Caps a sweep too fine for its span, or one whose step vanishes
        // against v and would never end.
        if (spec.values.size() > kMaxDcPoints) {
          fail(line, ".dc sweep needs more than 1e6 points");
        }
      }
      deck.dc = std::move(spec);
      first = false;
      continue;
    }
    if (head[0] == '.') fail(line, "unknown directive '" + tokens[0] + "'");

    // Parse the element card with all fallible work done *before* the
    // circuit is touched, so a failed first line can fall back to being
    // the conventional SPICE title without side effects.
    const auto parse_card = [&deck, &tokens, line]() {
      const char kind = lower(tokens[0]).front();
      const bool looks_like_card =
          kind == 'r' || kind == 'c' || kind == 'v' || kind == 'i' ||
          kind == 'm' || kind == 's' || kind == 'j';
      if (!looks_like_card) fail(line, "unknown card '" + tokens[0] + "'");
      if (tokens.size() < 3) fail(line, "card needs at least two nodes");
      const std::string& name = tokens[0];

      switch (kind) {
        case 'r': {
          if (tokens.size() < 4) fail(line, "resistor needs a value");
          const double value = parse_spice_number(tokens[3]);
          deck.circuit.add<Resistor>(name, deck.circuit.node(tokens[1]),
                                     deck.circuit.node(tokens[2]), value);
          break;
        }
        case 'c': {
          if (tokens.size() < 4) fail(line, "capacitor needs a value");
          const double value = parse_spice_number(tokens[3]);
          deck.circuit.add<Capacitor>(name, deck.circuit.node(tokens[1]),
                                      deck.circuit.node(tokens[2]), value);
          break;
        }
        case 'v': {
          auto wave = parse_source({tokens.begin() + 3, tokens.end()}, line);
          deck.circuit.add<VoltageSource>(
              name, deck.circuit.node(tokens[1]),
              deck.circuit.node(tokens[2]), std::move(wave));
          break;
        }
        case 'i': {
          auto wave = parse_source({tokens.begin() + 3, tokens.end()}, line);
          deck.circuit.add<CurrentSource>(
              name, deck.circuit.node(tokens[1]),
              deck.circuit.node(tokens[2]), std::move(wave));
          break;
        }
        case 'm': {
          if (tokens.size() < 4) fail(line, "MOSFET needs d g s [NMOS]");
          Mosfet::Params p;
          for (std::size_t k = 4; k < tokens.size(); ++k) {
            const auto [key, value] = split_kv(tokens[k]);
            if (key == "beta") {
              p.beta = parse_spice_number(value);
            } else if (key == "vth") {
              p.vth = parse_spice_number(value);
            } else if (key == "lambda") {
              p.lambda = parse_spice_number(value);
            } else if (key.empty() && lower(value) == "nmos") {
              // model name; defaults apply
            } else {
              fail(line, "unknown MOSFET parameter '" + tokens[k] + "'");
            }
          }
          deck.circuit.add<Mosfet>(
              name, /*drain=*/deck.circuit.node(tokens[1]),
              /*gate=*/deck.circuit.node(tokens[2]),
              /*source=*/deck.circuit.node(tokens[3]), p);
          break;
        }
        case 's': {
          double r_on = 100.0;
          double r_off = 1e12;
          bool initially_closed = false;
          std::vector<std::pair<double, bool>> events;
          for (std::size_t k = 3; k < tokens.size(); ++k) {
            const auto [key, value] = split_kv(tokens[k]);
            const std::string flag = lower(value);
            if (key == "ron") {
              r_on = parse_spice_number(value);
            } else if (key == "roff") {
              r_off = parse_spice_number(value);
            } else if (key.empty() && flag == "on") {
              initially_closed = true;
            } else if (key.empty() && flag == "off") {
              initially_closed = false;
            } else if (key == "events") {
              // t:on,t:off,...
              std::istringstream ev(value);
              std::string item;
              while (std::getline(ev, item, ',')) {
                const auto colon = item.find(':');
                if (colon == std::string::npos) {
                  fail(line, "switch event must be t:on or t:off");
                }
                const double t = parse_spice_number(item.substr(0, colon));
                const std::string state = lower(item.substr(colon + 1));
                if (state != "on" && state != "off") {
                  fail(line, "switch event state must be on/off");
                }
                events.emplace_back(t, state == "on");
              }
            } else {
              fail(line, "unknown switch parameter '" + tokens[k] + "'");
            }
          }
          deck.circuit.add<TimedSwitch>(
              name, deck.circuit.node(tokens[1]),
              deck.circuit.node(tokens[2]), initially_closed,
              std::move(events), r_on, r_off);
          break;
        }
        case 'j': {
          MtjState state = MtjState::kParallel;
          for (std::size_t k = 3; k < tokens.size(); ++k) {
            const auto [key, value] = split_kv(tokens[k]);
            const std::string flag = lower(value);
            if (key == "state") {
              if (flag == "p") {
                state = MtjState::kParallel;
              } else if (flag == "ap") {
                state = MtjState::kAntiParallel;
              } else {
                fail(line, "MTJ state must be p or ap");
              }
            } else if (key.empty() && flag == "mtj") {
              // model name; calibrated device applies
            } else {
              fail(line, "unknown MTJ parameter '" + tokens[k] + "'");
            }
          }
          const LinearRiModel model(MtjParams::paper_calibrated());
          deck.circuit.add<MtjElement>(name, deck.circuit.node(tokens[1]),
                                       deck.circuit.node(tokens[2]), model,
                                       state);
          break;
        }
        default:
          fail(line, "unhandled card kind");
      }
    };

    if (first) {
      // Conventional SPICE: the first line is the title unless it is a
      // well-formed card.
      first = false;
      try {
        parse_card();
      } catch (const CircuitError&) {
        deck.title = card;
      }
      continue;
    }
    first = false;
    parse_card();
  }
  return deck;
}

}  // namespace sttram::spice
