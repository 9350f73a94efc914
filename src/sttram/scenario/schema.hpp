// Declarative parameter schema of the experiment kinds.
//
// Every experiment kind declares the parameters it accepts as a
// ParamSchema: name, JSON type, default, valid range (or enum choices)
// and a one-line description.  It is the one place a parameter's type,
// default and range are written, and it serves both input surfaces:
// validate() checks campaign params before anything runs, and
// parse_cli_args() reads a `sttram_cli` command line through a table
// that maps each flag to a field.  Either way a bad value fails with
// the field (or flag) and the value in the message.  The kinds'
// builders (builders.hpp) read an absent field at its default.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sttram/io/json.hpp"

namespace sttram::scenario {

/// JSON type a parameter must carry.
enum class ParamType {
  kBool,
  kInteger,  ///< integral number inside int64 (1e5 and 3.0 accepted)
  kNumber,   ///< any finite number
  kEnum,     ///< string restricted to `choices`
};

/// Valid values of an integer or number field.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;  ///< lo itself is outside the range
  bool hi_open = false;  ///< hi itself is outside the range

  static constexpr Range at_least(double lo) { return {lo}; }
  static constexpr Range above(double lo) { return {lo, Range{}.hi, true}; }
  static constexpr Range closed(double lo, double hi) { return {lo, hi}; }
  static constexpr Range open(double lo, double hi) {
    return {lo, hi, true, true};
  }

  [[nodiscard]] bool contains(double v) const;
  /// Interval notation: "[1, inf)", "(0, 1)", "(-inf, inf)".
  [[nodiscard]] std::string to_string() const;
};

/// One accepted parameter of an experiment kind.
struct ParamField {
  std::string name;
  ParamType type = ParamType::kNumber;
  std::string description;
  std::vector<std::string> choices;  ///< accepted spellings (kEnum)
  /// Value of an absent field; null when absence has a meaning of its
  /// own, which the description states.
  Json fallback;
  Range range;  ///< valid values (kInteger, kNumber)

  /// True when `value` has the field's type and lies in its range or
  /// choices.
  [[nodiscard]] bool accepts(const Json& value) const;
  /// What the field accepts: "an integer in [1, inf)", "one of {a, b}".
  [[nodiscard]] std::string expects() const;
  /// expects(), the default when there is one and the description, as
  /// `sttram_cli campaign list` prints them after the field's name.
  [[nodiscard]] std::string summary() const;
  /// A command-line token as the field's value, read with the strict
  /// token parser (common/token.hpp).  Throws InvalidArgument
  /// "<what> wants <expects()>, got '<token>'" unless it is accepted.
  [[nodiscard]] Json read(const std::string& token,
                          const std::string& what) const;
};

/// The full parameter contract of one experiment kind.
class ParamSchema {
 public:
  ParamSchema& boolean(std::string name, std::string description,
                       bool fallback);
  ParamSchema& integer(std::string name, std::string description,
                       std::optional<std::int64_t> fallback,
                       Range range = {});
  ParamSchema& number(std::string name, std::string description,
                      std::optional<double> fallback, Range range = {});
  ParamSchema& choice(std::string name, std::string description,
                      std::vector<std::string> choices, std::string fallback);

  [[nodiscard]] const std::vector<ParamField>& fields() const {
    return fields_;
  }
  [[nodiscard]] const ParamField* find(const std::string& name) const;
  /// One line per field, as `sttram_cli campaign list` prints it:
  /// name, expects(), default (when there is one) and description.
  [[nodiscard]] std::string describe() const;

  /// Throws sttram::Error when `params` (a JSON object) carries an
  /// unknown key or a value its field does not accept, naming the
  /// parameter and the value after `context` (e.g. "scenario 'a/b=1'").
  void validate(const Json& params, const std::string& context) const;

 private:
  std::vector<ParamField> fields_;
};

/// How messages spell a field: the CLI maps fields to its flags
/// ("faults_ber" -> "--faults"); an unmapped field is quoted.
using FieldNames = std::map<std::string, std::string>;

/// One row of a command-line table.
struct CliArg {
  /// "--requests", or a positional slot ("<rows>": no leading "--").
  const char* flag;
  /// Schema field the row sets; nullptr: a CLI-only row (CliArgs::cli).
  const char* field;
  /// Non-null: the flag takes no token and sets this JSON value ("true",
  /// "false"; "" for a CLI-only switch).
  const char* bare = nullptr;
  /// A token that is CLI-only for this flag ("--workload trace").
  const char* cli_token = nullptr;
};

/// A command line read through a table.
struct CliArgs {
  Json params = Json::object();            ///< fields, each value checked
  std::map<std::string, std::string> cli;  ///< CLI-only rows -> token
};

/// Reads `tokens` through `table`, each value with ParamField::read of
/// its field in `schema`.  Throws InvalidArgument naming the flag on an
/// unknown flag, a missing or bad value, a surplus positional argument
/// or a row whose field `schema` lacks (`command` names the invocation
/// there: "traffic without --controller").
[[nodiscard]] CliArgs parse_cli_args(const std::vector<CliArg>& table,
                                     const ParamSchema& schema,
                                     const std::vector<std::string>& tokens,
                                     const std::string& command);

/// The flag of every field `table` sets, for a builder's messages.
[[nodiscard]] FieldNames cli_names(const std::vector<CliArg>& table);

/// Typed lookups with an explicit fallback, for callers outside a
/// builder.  Each throws sttram::Error on a type mismatch.
[[nodiscard]] std::int64_t param_int(const Json& params,
                                     const std::string& key,
                                     std::int64_t fallback);
[[nodiscard]] double param_number(const Json& params, const std::string& key,
                                  double fallback);

}  // namespace sttram::scenario
