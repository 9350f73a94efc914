// Tests for sttram/common: units, numeric utilities, formatting, the
// strict token parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "sttram/common/error.hpp"
#include "sttram/common/format.hpp"
#include "sttram/common/numeric.hpp"
#include "sttram/common/token.hpp"
#include "sttram/common/units.hpp"

namespace sttram {
namespace {

using namespace sttram::literals;

TEST(Units, OhmsLawDimensions) {
  const Ampere i = 200.0_uA;
  const Ohm r = 2500.0_Ohm;
  const Volt v = i * r;
  EXPECT_DOUBLE_EQ(v.value(), 0.5);
}

TEST(Units, EnergyFromPower) {
  const Ampere i = 1.0_mA;
  const Ohm r = 1.0_kOhm;
  const Second t = 4.0_ns;
  const Joule e = i * i * r * t;
  EXPECT_DOUBLE_EQ(e.value(), 1e-3 * 1e-3 * 1e3 * 4e-9);
}

TEST(Units, RatioOfSameDimensionIsPlainDouble) {
  const double ratio = 600.0_Ohm / 200.0_Ohm;
  EXPECT_DOUBLE_EQ(ratio, 3.0);
}

TEST(Units, ComparisonAndAbs) {
  EXPECT_LT(1.0_mV, 2.0_mV);
  EXPECT_EQ(abs(Volt(-0.25)), Volt(0.25));
  EXPECT_EQ(min(3.0_Ohm, 4.0_Ohm), 3.0_Ohm);
  EXPECT_EQ(max(3.0_Ohm, 4.0_Ohm), 4.0_Ohm);
}

TEST(Units, CapacitorChargeTime) {
  // tau = R*C has the dimension of time.
  const Second tau = Second((1.0_kOhm).value() * (1.0_pF).value());
  EXPECT_DOUBLE_EQ(tau.value(), 1e-9);
}

TEST(Quadratic, TwoRealRoots) {
  const QuadraticRoots r = solve_quadratic(1.0, -3.0, 2.0);
  ASSERT_EQ(r.count, 2);
  EXPECT_DOUBLE_EQ(r.lo, 1.0);
  EXPECT_DOUBLE_EQ(r.hi, 2.0);
}

TEST(Quadratic, NoRealRoots) {
  EXPECT_EQ(solve_quadratic(1.0, 0.0, 1.0).count, 0);
}

TEST(Quadratic, LinearDegenerate) {
  const QuadraticRoots r = solve_quadratic(0.0, 2.0, -4.0);
  ASSERT_EQ(r.count, 1);
  EXPECT_DOUBLE_EQ(r.lo, 2.0);
}

TEST(Quadratic, StableForSmallRoot) {
  // x^2 - 1e8 x + 1 = 0 has roots ~1e8 and ~1e-8; naive formula loses the
  // small one to cancellation.
  const QuadraticRoots r = solve_quadratic(1.0, -1e8, 1.0);
  ASSERT_EQ(r.count, 2);
  EXPECT_NEAR(r.lo, 1e-8, 1e-14);
  EXPECT_NEAR(r.hi, 1e8, 1.0);
}

TEST(Brent, FindsRootFasterThanTolerance) {
  const double root =
      brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0, 1e-14);
  EXPECT_NEAR(std::cos(root), root, 1e-12);
}

TEST(Brent, EndpointRoot) {
  EXPECT_DOUBLE_EQ(brent([](double x) { return x; }, 0.0, 1.0), 0.0);
}

TEST(PiecewiseLinear, InterpolatesAndClamps) {
  const PiecewiseLinear f({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(1.5), 5.0);
  EXPECT_DOUBLE_EQ(f(-1.0), 0.0);   // clamped
  EXPECT_DOUBLE_EQ(f(3.0), 0.0);    // clamped
}

TEST(PiecewiseLinear, RejectsBadInput) {
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({0.0}, {1.0}), InvalidArgument);
  EXPECT_THROW(PiecewiseLinear({0.0, 1.0}, {1.0}), InvalidArgument);
}

TEST(Linspace, CoversRangeInclusive) {
  const auto v = linspace(0.0, 1.0, 4);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 0.0);
  EXPECT_DOUBLE_EQ(v.back(), 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

TEST(ApproxEqual, RelativeAndAbsolute) {
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(approx_equal(1.0, 1.1));
  EXPECT_TRUE(approx_equal(0.0, 1e-12, 1e-9, 1e-9));
}

TEST(Format, EngineeringNotation) {
  EXPECT_EQ(format_si(200e-6, "A"), "200 uA");
  EXPECT_EQ(format_si(2.5e3, "Ohm"), "2.5 kOhm");
  EXPECT_EQ(format_si(0.0766, "V"), "76.6 mV");
  EXPECT_EQ(format_si(0.0, "V"), "0 V");
}

TEST(Format, Percent) {
  EXPECT_EQ(format_percent(0.0413), "4.13 %");
  EXPECT_EQ(format_percent(-0.0571), "-5.71 %");
}

TEST(Require, ThrowsInvalidArgument) {
  EXPECT_NO_THROW(require(true, "ok"));
  EXPECT_THROW(require(false, "boom"), InvalidArgument);
}

TEST(Token, NumberConsumesTheWholeFiniteToken) {
  EXPECT_EQ(parse_number("0.06"), 0.06);
  EXPECT_EQ(parse_number("-1.5e-3"), -1.5e-3);
  EXPECT_EQ(parse_number("+2."), 2.0);
  EXPECT_EQ(parse_number(".5"), 0.5);
  for (const char* bad : {"", "abc", "10x", "2.5.1", "1e", "nan", "inf",
                          "0x10", " 1", "1 ", "1e999", "-1e999"}) {
    EXPECT_FALSE(parse_number(bad).has_value()) << bad;
  }
  EXPECT_EQ(scan_number("1.5meg"), 3u);
  EXPECT_EQ(scan_number("2e"), 1u);  // the exponent needs digits
  EXPECT_EQ(scan_number("e5"), 0u);
}

TEST(Token, IntegerIsExactAndNeverWraps) {
  EXPECT_EQ(parse_integer("100000"), 100000);
  EXPECT_EQ(parse_integer("1e5"), 100000);  // as a campaign reads it
  EXPECT_EQ(parse_integer("3.0"), 3);
  EXPECT_EQ(parse_integer("+7"), 7);
  EXPECT_EQ(parse_integer("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(parse_integer("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  for (const char* bad : {"", "4.9", "10x", "abc", "9223372036854775808",
                          "1e30", "-1e19", "nan", "+-5"}) {
    EXPECT_FALSE(parse_integer(bad).has_value()) << bad;
  }
  EXPECT_FALSE(to_int64(0x1p63).has_value());
  EXPECT_EQ(to_int64(-0x1p63), std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(to_int64(std::nan("")).has_value());
}

}  // namespace
}  // namespace sttram
