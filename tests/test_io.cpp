// Tests for sttram/io: table rendering, CSV escaping, ASCII plots.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sttram/common/error.hpp"
#include "sttram/io/ascii_plot.hpp"
#include "sttram/io/csv.hpp"
#include "sttram/io/json.hpp"
#include "sttram/io/table.hpp"
#include "sttram/io/vcd.hpp"

namespace sttram {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"beta", "2.13"});
  t.add_row({"sense margin", "12.1 mV"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("sense margin"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TextTable, RejectsBadArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, InvalidArgument);
}

TEST(Csv, PlainRow) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"a", "b", "c"});
  EXPECT_EQ(os.str(), "a,b,c\n");
  EXPECT_EQ(w.rows_written(), 1u);
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<std::string>{"has,comma", "has\"quote", "plain"});
  EXPECT_EQ(os.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

TEST(Csv, NumericPrecisionRoundTrips) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row(std::vector<double>{0.076612345678912345, 2.13});
  const std::string line = os.str();
  double a = 0.0, b = 0.0;
  ASSERT_EQ(std::sscanf(line.c_str(), "%lf,%lf", &a, &b), 2);
  EXPECT_DOUBLE_EQ(a, 0.076612345678912345);
  EXPECT_DOUBLE_EQ(b, 2.13);
}

TEST(AsciiPlot, RendersSeriesAndLabels) {
  AsciiPlot p("title", "x-axis", "y", 40, 10);
  p.add_series({"rise", '*', {0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}});
  p.add_hline(1.0);
  const std::string s = p.render();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("x-axis"), std::string::npos);
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("rise"), std::string::npos);
}

TEST(AsciiPlot, EmptyPlotIsGraceful) {
  AsciiPlot p("empty", "x", "y");
  EXPECT_NE(p.render().find("(no data)"), std::string::npos);
}

TEST(AsciiPlot, RejectsMismatchedSeries) {
  AsciiPlot p("t", "x", "y");
  EXPECT_THROW(p.add_series({"bad", '*', {0.0, 1.0}, {0.0}}),
               InvalidArgument);
  EXPECT_THROW(AsciiPlot("t", "x", "y", 4, 2), InvalidArgument);
}

TEST(AsciiPlot, IgnoresNonFiniteValues) {
  AsciiPlot p("t", "x", "y", 40, 10);
  p.add_series({"s", '*',
                {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()},
                {0.0, std::numeric_limits<double>::infinity(), 1.0}});
  EXPECT_FALSE(p.render().empty());  // must not throw or corrupt bounds
}

TEST(Json, ScalarsAndCompact) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::integer(-42).dump(), "-42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
  // Full double precision round-trips.
  EXPECT_EQ(Json::number(0.0766123456789).dump(), "0.076612345678900004");
}

TEST(Json, NestedStructure) {
  Json obj = Json::object();
  obj.set("scheme", Json::string("nondestructive"));
  obj.set("beta", Json::number(2.131));
  Json margins = Json::array();
  margins.push_back(Json::number(0.01257));
  margins.push_back(Json::number(0.01257));
  obj.set("margins", std::move(margins));
  const std::string compact = obj.dump();
  EXPECT_EQ(compact,
            "{\"beta\":2.1309999999999998,\"margins\":[0.01257,0.01257],"
            "\"scheme\":\"nondestructive\"}");
  // Pretty printing adds newlines and indentation.
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n  \"beta\": "), std::string::npos);
}

TEST(Json, EscapingAndNonFinite) {
  EXPECT_EQ(Json::string("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json::string(std::string(1, '\x01')).dump(), "\"\\u0001\"");
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
}

TEST(Json, TypeErrorsAndEmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
  Json scalar = Json::number(1.0);
  EXPECT_THROW(scalar.push_back(Json::null()), InvalidArgument);
  EXPECT_THROW(scalar.set("k", Json::null()), InvalidArgument);
  Json arr = Json::array();
  arr.push_back(Json::integer(1));
  EXPECT_EQ(arr.size(), 1u);
  EXPECT_TRUE(arr.is_array());
  EXPECT_FALSE(arr.is_object());
}

TEST(Json, ParseRoundTripsDumpOutput) {
  Json obj = Json::object();
  obj.set("name", Json::string("bench"));
  obj.set("count", Json::integer(42));
  obj.set("value", Json::number(2.5e-9));
  obj.set("flag", Json::boolean(true));
  obj.set("missing", Json::null());
  Json arr = Json::array();
  arr.push_back(Json::integer(1));
  arr.push_back(Json::string("two"));
  obj.set("items", std::move(arr));

  // Both compact and pretty forms parse back to the same structure.
  for (const int indent : {0, 2}) {
    const Json back = Json::parse(obj.dump(indent));
    EXPECT_EQ(back.at("name").as_string(), "bench");
    EXPECT_EQ(back.at("count").as_integer(), 42);
    EXPECT_DOUBLE_EQ(back.at("value").as_number(), 2.5e-9);
    EXPECT_TRUE(back.at("flag").as_bool());
    EXPECT_TRUE(back.at("missing").is_null());
    ASSERT_EQ(back.at("items").size(), 2u);
    EXPECT_EQ(back.at("items").at(0).as_integer(), 1);
    EXPECT_EQ(back.at("items").at(1).as_string(), "two");
    EXPECT_TRUE(back.contains("flag"));
    EXPECT_FALSE(back.contains("absent"));
  }
}

TEST(Json, ParseHandlesEscapesAndNumbers) {
  const Json s = Json::parse("\"a\\\"b\\\\c\\nd\\u0041\"");
  EXPECT_EQ(s.as_string(), "a\"b\\c\ndA");
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e-3").as_number(), -1.5e-3);
  EXPECT_EQ(Json::parse("-7").as_integer(), -7);
  // An integral double extracts as an integer; a fractional one throws.
  EXPECT_EQ(Json::parse("3.0").as_integer(), 3);
  EXPECT_THROW((void)Json::parse("3.5").as_integer(), InvalidArgument);
  EXPECT_TRUE(Json::parse(" [ ] ").is_array());
  EXPECT_EQ(Json::parse("{\"a\": {\"b\": [1, 2]}}")
                .at("a")
                .at("b")
                .at(1)
                .as_integer(),
            2);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), InvalidArgument);
  EXPECT_THROW(Json::parse("{"), InvalidArgument);
  EXPECT_THROW(Json::parse("[1,]"), InvalidArgument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), InvalidArgument);
  EXPECT_THROW(Json::parse("\"unterminated"), InvalidArgument);
  EXPECT_THROW(Json::parse("tru"), InvalidArgument);
  EXPECT_THROW(Json::parse("1 2"), InvalidArgument);  // trailing garbage
  EXPECT_THROW(Json::parse("nope"), InvalidArgument);
  // Accessor type errors.
  EXPECT_THROW((void)Json::parse("[1]").at("key"), InvalidArgument);
  EXPECT_THROW((void)Json::parse("{}").at("missing"), InvalidArgument);
  EXPECT_THROW((void)Json::parse("[1]").at(std::size_t{5}), InvalidArgument);
  EXPECT_THROW((void)Json::parse("1").as_string(), InvalidArgument);
  EXPECT_THROW((void)Json::parse("\"s\"").as_number(), InvalidArgument);
}

// Expects `text` to be rejected with a message carrying `needle` —
// the per-rejection-path checks for the hardened untrusted-file parser.
static void expect_parse_error(const std::string& text,
                               const std::string& needle) {
  try {
    Json::parse(text);
    FAIL() << "expected Json::parse to reject: " << text;
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message '" << e.what() << "' lacks '" << needle << "'";
  }
}

TEST(Json, ParseCapsNestingDepth) {
  // 64 levels of arrays parse; 65 trip the guard before any recursion
  // can threaten the stack.
  const std::string ok(64, '[');
  EXPECT_NO_THROW(Json::parse(ok + std::string(64, ']')));
  const std::string deep(65, '[');
  expect_parse_error(deep + std::string(65, ']'), "nesting deeper");
  // Mixed object/array nesting counts against the same budget.
  std::string mixed;
  for (int i = 0; i < 40; ++i) mixed += "{\"k\":[";
  expect_parse_error(mixed, "nesting deeper");
}

TEST(Json, ParseRejectsTrailingGarbageWithPosition) {
  expect_parse_error("{\"a\": 1}\nbogus", "trailing characters");
  expect_parse_error("{\"a\": 1}\nbogus", "line 2, column 1");
  expect_parse_error("[1, 2] []", "line 1, column 8");
  // Trailing whitespace is not garbage.
  EXPECT_NO_THROW(Json::parse("{\"a\": 1}\n\n  "));
}

TEST(Json, AsIntegerRejectsValuesOutsideInt64) {
  // Casting these to int64 is undefined behaviour; they must throw.
  for (const char* text : {"1e30", "-1e30", "9.3e18", "9223372036854775808.0",
                           "1e19"}) {
    EXPECT_THROW((void)Json::parse(text).as_integer(), InvalidArgument)
        << text;
    EXPECT_FALSE(Json::parse(text).is_integer()) << text;
  }
  EXPECT_EQ(Json::parse("-9223372036854775808.0").as_integer(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(Json::parse("1e5").as_integer(), 100000);
  EXPECT_TRUE(Json::parse("9223372036854775807").is_integer());
}

TEST(Json, ParseRejectsNonFiniteNumbers) {
  expect_parse_error("1e999", "non-finite");
  expect_parse_error("[-1e999]", "non-finite");
  expect_parse_error("{\"v\": 1e999999}", "non-finite");
  // JSON has no inf/nan literals; these die as invalid literals, not
  // as numbers.
  EXPECT_THROW(Json::parse("inf"), InvalidArgument);
  EXPECT_THROW(Json::parse("nan"), InvalidArgument);
  // Underflow to zero stays representable and is accepted.
  EXPECT_EQ(Json::parse("1e-999").as_number(), 0.0);
}

TEST(Json, ParseRejectsMalformedNumbers) {
  expect_parse_error("1.2.3", "malformed number");
  expect_parse_error("1e", "malformed number");
  expect_parse_error("1e+", "malformed number");
  expect_parse_error("1-2", "malformed number");
  expect_parse_error("-", "invalid number");
  // Out-of-int64-range integers still degrade to doubles.
  EXPECT_DOUBLE_EQ(Json::parse("123456789012345678901234567890").as_number(),
                   1.2345678901234568e29);
}

TEST(Json, ParseErrorsCarryLineAndColumn) {
  expect_parse_error("{\n  \"a\": 1,\n  bad\n}", "line 3, column 3");
  expect_parse_error("[1,\n 2,\n tru]", "line 3, column 2");
  // Every message keeps the Json::parse prefix for grep-ability.
  expect_parse_error("{", "Json::parse");
}

TEST(Vcd, HeaderAndChanges) {
  std::ostringstream os;
  const VcdWriter w("testbench", 1000.0);  // 1 ps timescale
  VcdRealSignal v{"v_bl", {0.0, 0.5, 0.5, 0.7}};
  VcdBitSignal b{"sen en", {false, false, true, true}};
  w.write(os, {0.0, 1e-9, 2e-9, 3e-9}, {v}, {b});
  const std::string s = os.str();
  EXPECT_NE(s.find("$timescale 1000 fs $end"), std::string::npos);
  EXPECT_NE(s.find("$scope module testbench $end"), std::string::npos);
  EXPECT_NE(s.find("$var real 64"), std::string::npos);
  EXPECT_NE(s.find("$var wire 1"), std::string::npos);
  // Whitespace in signal names is sanitized.
  EXPECT_NE(s.find("sen_en"), std::string::npos);
  EXPECT_EQ(s.find("sen en $end"), std::string::npos);
  // Time markers in picoseconds.
  EXPECT_NE(s.find("#0"), std::string::npos);
  EXPECT_NE(s.find("#1000"), std::string::npos);
  EXPECT_NE(s.find("#3000"), std::string::npos);
  // The unchanged v=0.5 at t=2ns is coalesced: only the bit changes at
  // #2000.
  const auto pos2000 = s.find("#2000");
  ASSERT_NE(pos2000, std::string::npos);
  const auto pos3000 = s.find("#3000");
  EXPECT_EQ(s.substr(pos2000, pos3000 - pos2000).find("r0.5"),
            std::string::npos);
}

TEST(Vcd, ValidatesInput) {
  std::ostringstream os;
  const VcdWriter w;
  EXPECT_THROW(w.write(os, {}, {}), InvalidArgument);
  EXPECT_THROW(w.write(os, {1e-9, 1e-9}, {}), InvalidArgument);
  VcdRealSignal bad{"x", {1.0}};
  EXPECT_THROW(w.write(os, {0.0, 1e-9}, {bad}), InvalidArgument);
  EXPECT_THROW(VcdWriter("m", 0.0), InvalidArgument);
}

TEST(Vcd, SubTimescaleEventsStayOrdered) {
  // Two samples 0.1 fs apart at a 1 fs timescale must still emit
  // strictly increasing time markers.
  std::ostringstream os;
  const VcdWriter w("m", 1.0);
  VcdRealSignal v{"v", {0.0, 1.0, 2.0}};
  w.write(os, {0.0, 1e-19, 2e-19}, {v});
  const std::string s = os.str();
  EXPECT_NE(s.find("#0"), std::string::npos);
  EXPECT_NE(s.find("#1"), std::string::npos);
  EXPECT_NE(s.find("#2"), std::string::npos);
}

}  // namespace
}  // namespace sttram
