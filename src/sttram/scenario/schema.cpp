#include "sttram/scenario/schema.hpp"

#include <algorithm>
#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/token.hpp"

namespace sttram::scenario {

bool Range::contains(double v) const {
  return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
}

std::string Range::to_string() const {
  std::string out = lo_open || std::isinf(lo) ? "(" : "[";
  out += format_double(lo, 12) + ", " + format_double(hi, 12);
  out += hi_open || std::isinf(hi) ? ")" : "]";
  return out;
}

bool ParamField::accepts(const Json& value) const {
  switch (type) {
    case ParamType::kBool:
      return value.is_bool();
    case ParamType::kInteger:
      return value.is_integer() &&
             range.contains(static_cast<double>(value.as_integer()));
    case ParamType::kNumber:
      return value.is_number() && range.contains(value.as_number());
    case ParamType::kEnum:
      for (const std::string& c : choices) {
        if (value.is_string() && value.as_string() == c) return true;
      }
      return false;
  }
  return false;
}

std::string ParamField::expects() const {
  std::string out;
  switch (type) {
    case ParamType::kBool:
      return "true or false";
    case ParamType::kEnum:
      for (const std::string& c : choices) {
        out += (out.empty() ? "" : ", ") + c;
      }
      return "one of {" + out + "}";
    case ParamType::kInteger:
    case ParamType::kNumber:
      out = type == ParamType::kInteger ? "an integer" : "a number";
      return out + " in " + range.to_string();
  }
  return out;
}

Json ParamField::read(const std::string& token,
                      const std::string& what) const {
  Json value;
  if (type == ParamType::kInteger) {
    if (const std::optional<std::int64_t> v = parse_integer(token)) {
      value = Json::integer(*v);
    }
  } else if (type == ParamType::kNumber) {
    if (const std::optional<double> v = parse_number(token)) {
      value = Json::number(*v);
    }
  } else if (type == ParamType::kBool) {
    if (token == "true" || token == "false") {
      value = Json::boolean(token == "true");
    }
  } else {
    value = Json::string(token);
  }
  if (!accepts(value)) {
    throw InvalidArgument(what + " wants " + expects() + ", got '" + token +
                          "'");
  }
  return value;
}

ParamSchema& ParamSchema::boolean(std::string name, std::string description,
                                  bool fallback) {
  fields_.push_back({std::move(name), ParamType::kBool,
                     std::move(description), {}, Json::boolean(fallback), {}});
  return *this;
}

ParamSchema& ParamSchema::integer(std::string name, std::string description,
                                  std::optional<std::int64_t> fallback,
                                  Range range) {
  fields_.push_back({std::move(name), ParamType::kInteger,
                     std::move(description), {},
                     fallback ? Json::integer(*fallback) : Json(), range});
  return *this;
}

ParamSchema& ParamSchema::number(std::string name, std::string description,
                                 std::optional<double> fallback,
                                 Range range) {
  fields_.push_back({std::move(name), ParamType::kNumber,
                     std::move(description), {},
                     fallback ? Json::number(*fallback) : Json(), range});
  return *this;
}

ParamSchema& ParamSchema::choice(std::string name, std::string description,
                                 std::vector<std::string> choices,
                                 std::string fallback) {
  fields_.push_back({std::move(name), ParamType::kEnum,
                     std::move(description), std::move(choices),
                     Json::string(std::move(fallback)), {}});
  return *this;
}

const ParamField* ParamSchema::find(const std::string& name) const {
  for (const ParamField& f : fields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

std::string ParamField::summary() const {
  std::string out = expects();
  if (fallback.is_number()) {
    out += ", default " + format_double(fallback.as_number(), 12);
  } else if (!fallback.is_null()) {
    out += ", default " +
           (fallback.is_string() ? fallback.as_string() : fallback.dump());
  }
  return out + " - " + description;
}

std::string ParamSchema::describe() const {
  std::string out;
  for (const ParamField& f : fields_) {
    std::string row = "  " + f.name + " ";
    row.resize(std::max<std::size_t>(row.size(), 21), ' ');
    out += row + f.summary() + "\n";
  }
  return out;
}

void ParamSchema::validate(const Json& params,
                           const std::string& context) const {
  require(params.is_object(), context + ": params must be a JSON object");
  for (const std::string& key : params.keys()) {
    const ParamField* field = find(key);
    if (field == nullptr) {
      throw InvalidArgument(context + ": unknown parameter '" + key + "'");
    }
    const Json& value = params.at(key);
    if (!field->accepts(value)) {
      throw InvalidArgument(context + ": parameter '" + key + "' wants " +
                            field->expects() + ", got " + value.dump());
    }
  }
}

namespace {

bool is_flag(const std::string& token) {
  return token.size() > 2 && token.compare(0, 2, "--") == 0;
}

}  // namespace

CliArgs parse_cli_args(const std::vector<CliArg>& table,
                       const ParamSchema& schema,
                       const std::vector<std::string>& tokens,
                       const std::string& command) {
  CliArgs out;
  std::size_t next_slot = 0;  // table rows the positional tokens used up
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const std::string& token = tokens[k];
    const CliArg* row = nullptr;
    if (is_flag(token)) {
      for (const CliArg& r : table) {
        if (token == r.flag) row = &r;
      }
      require(row != nullptr,
              "unknown flag '" + token + "' for '" + command + "'");
    } else {
      for (; next_slot < table.size() && row == nullptr; ++next_slot) {
        if (!is_flag(table[next_slot].flag)) row = &table[next_slot];
      }
      require(row != nullptr, "unexpected argument '" + token + "' for '" +
                                  command + "'");
    }
    const std::string flag = row->flag;
    const ParamField* field =
        row->field != nullptr ? schema.find(row->field) : nullptr;
    require(row->field == nullptr || field != nullptr,
            flag + " does not apply to '" + command + "'");
    std::string value = token;
    if (row->bare != nullptr) {
      value = row->bare;
    } else if (is_flag(token)) {
      require(k + 1 < tokens.size(), flag + " requires a value");
      value = tokens[++k];
    }
    if (field == nullptr ||
        (row->cli_token != nullptr && value == row->cli_token)) {
      out.cli[flag] = value;
    } else {
      out.params.set(field->name, field->read(value, flag));
    }
  }
  return out;
}

FieldNames cli_names(const std::vector<CliArg>& table) {
  FieldNames names;
  for (const CliArg& row : table) {
    if (row.field != nullptr) names.emplace(row.field, row.flag);
  }
  return names;
}

std::int64_t param_int(const Json& params, const std::string& key,
                       std::int64_t fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_integer();
}

double param_number(const Json& params, const std::string& key,
                    double fallback) {
  if (!params.contains(key)) return fallback;
  return params.at(key).as_number();
}

}  // namespace sttram::scenario
