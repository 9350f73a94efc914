// Tests for sttram/cell: access-device models, the 1T1J cell, bit-line
// parasitics/Elmore delay, and the process-varied memory array.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "mc_oracle.hpp"
#include "sttram/cell/access_transistor.hpp"
#include "sttram/cell/array.hpp"
#include "sttram/cell/bitline.hpp"
#include "sttram/cell/cell.hpp"
#include "sttram/common/error.hpp"

namespace sttram {
namespace {

using namespace sttram::literals;

/// V_BL = I (R_MTJ(s, I) + R_T(I)) for a hypothetical state.
Volt bitline_voltage(const OneT1JCell& cell, MtjState s, Ampere i) {
  return i * (cell.mtj().resistance(s, i) + cell.access().resistance(i));
}

/// Series path resistance of an array cell in its stored state at `i`.
Ohm path_resistance(const MemoryArray& a, std::size_t row, std::size_t col,
                    Ampere i) {
  const ArrayCell& c = a.cell(row, col);
  return LinearRiModel(c.params).resistance(c.state, i) + c.r_access;
}

/// Population extremes of R_low / R_high over an array at `i`.
struct ResistanceSpread {
  Ohm min_low{0.0}, max_low{0.0};
  Ohm min_high{0.0}, max_high{0.0};
};

ResistanceSpread resistance_spread(const MemoryArray& a, Ampere i) {
  ResistanceSpread s;
  s.min_low = s.min_high = Ohm(std::numeric_limits<double>::infinity());
  s.max_low = s.max_high = Ohm(-std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < a.geometry().rows; ++r) {
    for (std::size_t col = 0; col < a.geometry().cols; ++col) {
      const LinearRiModel m(a.cell(r, col).params);
      const Ohm lo = m.resistance(MtjState::kParallel, i);
      const Ohm hi = m.resistance(MtjState::kAntiParallel, i);
      s.min_low = min(s.min_low, lo);
      s.max_low = max(s.max_low, lo);
      s.min_high = min(s.min_high, hi);
      s.max_high = max(s.max_high, hi);
    }
  }
  return s;
}

// ------------------------------------------------------- Access devices

TEST(AccessDevice, FixedResistorIsFlat) {
  const FixedAccessResistor r(917.0_Ohm);
  EXPECT_EQ(r.resistance(Ampere(0)), 917.0_Ohm);
  EXPECT_EQ(r.resistance(Ampere(1e-3)), 917.0_Ohm);
  EXPECT_EQ(r.shift(Ampere(1e-6), Ampere(2e-4)), 0.0_Ohm);
}

TEST(AccessDevice, LinearRegionNmosRisesWithCurrent) {
  const auto nmos = LinearRegionNmos::with_on_resistance(917.0_Ohm);
  const double r0 = nmos.resistance(Ampere(0)).value();
  EXPECT_NEAR(r0, 917.0, 1e-9);
  double prev = r0;
  for (const double i : {50e-6, 100e-6, 200e-6, 300e-6}) {
    const double r = nmos.resistance(Ampere(i)).value();
    EXPECT_GT(r, prev);
    prev = r;
  }
  // The shift at the paper's currents is small relative to the +-130 Ohm
  // budget — the design's premise that R_T is "almost" constant.
  const Ohm shift = nmos.shift(Ampere(94e-6), Ampere(200e-6));
  EXPECT_GT(shift.value(), 0.0);
  EXPECT_LT(shift.value(), 130.0);
}

TEST(AccessDevice, NmosRequiresOnState) {
  LinearRegionNmos::Params p;
  p.beta = 1e-3;
  p.vgs = Volt(0.3);
  p.vth = Volt(0.45);
  EXPECT_THROW(LinearRegionNmos{p}, InvalidArgument);
}

TEST(AccessDevice, ClonePreservesBehavior) {
  const auto nmos = LinearRegionNmos::with_on_resistance(500.0_Ohm);
  const auto c = nmos.clone();
  EXPECT_EQ(c->resistance(Ampere(1e-4)), nmos.resistance(Ampere(1e-4)));
}

// ---------------------------------------------------------------- Cell

TEST(Cell, BitlineVoltageFollowsState) {
  OneT1JCell cell;
  const Ampere i(200e-6);
  cell.mtj().force_state(MtjState::kParallel);
  const Volt v_low = cell.read_bitline_voltage(i);
  cell.mtj().force_state(MtjState::kAntiParallel);
  const Volt v_high = cell.read_bitline_voltage(i);
  EXPECT_NEAR(v_low.value(), 200e-6 * (1210.0 + 917.0), 1e-9);
  EXPECT_NEAR(v_high.value(), 200e-6 * (1900.0 + 917.0), 1e-9);
  EXPECT_GT(v_high, v_low);
  EXPECT_EQ(cell.mtj().read_count(), 2u);
}

TEST(Cell, HypotheticalVoltageDoesNotCountReads) {
  const OneT1JCell cell;
  const Volt v = bitline_voltage(cell, MtjState::kAntiParallel,
                                 Ampere(100e-6));
  EXPECT_GT(v.value(), 0.0);
  EXPECT_EQ(cell.mtj().read_count(), 0u);
}

TEST(Cell, WriteRoundTrip) {
  OneT1JCell cell;
  EXPECT_TRUE(cell.write(true, Ampere(750e-6), Second(4e-9)));
  EXPECT_TRUE(cell.stored_bit());
  EXPECT_TRUE(cell.write(false, Ampere(750e-6), Second(4e-9)));
  EXPECT_FALSE(cell.stored_bit());
}

TEST(Cell, PulseEnergyMatchesI2RT) {
  OneT1JCell cell;
  cell.mtj().force_state(MtjState::kParallel);
  const Joule e = cell.pulse_energy(Ampere(750e-6), Second(4e-9));
  const double r = cell.path_resistance(Ampere(750e-6)).value();
  EXPECT_NEAR(e.value(), 750e-6 * 750e-6 * r * 4e-9, 1e-18);
}

// -------------------------------------------------------------- Bitline

TEST(Bitline, TotalsScaleWithLength) {
  BitlineParams p;
  p.cells_per_bitline = 128;
  const Bitline line(p);
  EXPECT_NEAR(line.total_wire_resistance().value(), 256.0, 1e-12);
  EXPECT_NEAR(line.total_capacitance().value(), 128 * 1.5e-15, 1e-20);
}

TEST(Bitline, ElmoreGrowsQuadraticallyWithLength) {
  BitlineParams p64, p128;
  p64.cells_per_bitline = 64;
  p128.cells_per_bitline = 128;
  const double d64 = Bitline(p64).elmore_delay().value();
  const double d128 = Bitline(p128).elmore_delay().value();
  // n(n+1)/2 scaling: doubling n roughly quadruples the ladder delay.
  EXPECT_NEAR(d128 / d64, (128.0 * 129.0) / (64.0 * 65.0), 1e-9);
}

TEST(Bitline, ExtraCapacitanceAddsFarEndDelay) {
  BitlineParams base;
  BitlineParams with_cap = base;
  with_cap.extra_sense_capacitance = Farad(250e-15);
  EXPECT_GT(Bitline(with_cap).elmore_delay(), Bitline(base).elmore_delay());
  EXPECT_GT(Bitline(with_cap).settling_time(2.8_kOhm, 0.01),
            Bitline(base).settling_time(2.8_kOhm, 0.01));
}

TEST(Bitline, SettlingTimeScalesWithLogTolerance) {
  const Bitline line(BitlineParams{});
  const double t1 = line.settling_time(2.8_kOhm, 0.01).value();
  const double t2 = line.settling_time(2.8_kOhm, 0.0001).value();
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);  // ln(1e4)/ln(1e2)
  EXPECT_THROW((void)line.settling_time(2.8_kOhm, 0.0), InvalidArgument);
}

TEST(Bitline, LeakageProportionalToUnselectedCells) {
  BitlineParams p;
  p.cells_per_bitline = 128;
  const Bitline line(p);
  const Ampere i = line.leakage_current(Volt(0.5));
  EXPECT_NEAR(i.value(), 0.5 / 50e6 * 127.0, 1e-12);
  // Relative error at the paper's read current is well below 1 %.
  EXPECT_LT(line.leakage_error(Ampere(200e-6), Volt(0.563)), 0.01);
}

// ---------------------------------------------------------------- Array

TEST(Array, GeometryAndDeterminism) {
  const MtjVariationModel var(MtjParams::paper_calibrated(),
                              VariationParams{});
  const MemoryArray a(ArrayGeometry{8, 16}, var, 0.02, 42);
  const MemoryArray b(ArrayGeometry{8, 16}, var, 0.02, 42);
  EXPECT_EQ(a.geometry().cell_count(), 128u);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 16; ++c) {
      EXPECT_DOUBLE_EQ(a.cell(r, c).params.r_low0.value(),
                       b.cell(r, c).params.r_low0.value());
    }
  }
  EXPECT_THROW((void)a.cell(8, 0), InvalidArgument);
}

TEST(Array, CheckerboardInitialData) {
  const MtjVariationModel var(MtjParams::paper_calibrated(),
                              VariationParams::none());
  const MemoryArray a(ArrayGeometry{4, 4}, var, 0.0, 1);
  EXPECT_FALSE(a.stored(0, 0));
  EXPECT_TRUE(a.stored(0, 1));
  EXPECT_TRUE(a.stored(1, 0));
  EXPECT_FALSE(a.stored(1, 1));
}

TEST(Array, StoreAndPathResistance) {
  const MtjVariationModel var(MtjParams::paper_calibrated(),
                              VariationParams::none());
  MemoryArray a(ArrayGeometry{2, 2}, var, 0.0, 1);
  a.store(0, 0, true);
  EXPECT_TRUE(a.stored(0, 0));
  const Ohm r_high = path_resistance(a, 0, 0, Ampere(200e-6));
  a.store(0, 0, false);
  const Ohm r_low = path_resistance(a, 0, 0, Ampere(200e-6));
  EXPECT_NEAR((r_high - r_low).value(), 690.0, 1e-9);
  EXPECT_NEAR((Ampere(200e-6) * path_resistance(a, 0, 0, Ampere(200e-6)))
                  .value(),
              200e-6 * (1210.0 + 917.0), 1e-9);
}

TEST(Array, SpreadTightensWithoutVariation) {
  const MtjVariationModel none(MtjParams::paper_calibrated(),
                               VariationParams::none());
  const MemoryArray clean(ArrayGeometry{16, 16}, none, 0.0, 7);
  const auto s = resistance_spread(clean, Ampere(200e-6));
  EXPECT_DOUBLE_EQ(s.min_low.value(), s.max_low.value());
  EXPECT_DOUBLE_EQ(s.min_high.value(), s.max_high.value());

  const MtjVariationModel wide(MtjParams::paper_calibrated(),
                               VariationParams{0.15, 0.05, 0.0});
  const MemoryArray spread(ArrayGeometry{16, 16}, wide, 0.02, 7);
  const auto w = resistance_spread(spread, Ampere(200e-6));
  EXPECT_LT(w.min_low, s.min_low);
  EXPECT_GT(w.max_low, s.max_low);
}

TEST(Array, SharedReferenceWindowCollapsesUnderVariation) {
  // The paper's premise (Eq. 2): with enough bit-to-bit variation,
  // Max(V_BL,L) >= Min(V_BL,H) and no shared reference works.
  const MtjVariationModel none(MtjParams::paper_calibrated(),
                               VariationParams::none());
  const MemoryArray clean(ArrayGeometry{32, 32}, none, 0.0, 3);
  EXPECT_GT(oracle::shared_reference_window(clean, Ampere(200e-6)).value(),
            0.1);

  const MtjVariationModel huge(MtjParams::paper_calibrated(),
                               VariationParams{0.25, 0.05, 0.0});
  const MemoryArray broken(ArrayGeometry{32, 32}, huge, 0.02, 3);
  EXPECT_LT(oracle::shared_reference_window(broken, Ampere(200e-6)).value(),
            0.0);
}

}  // namespace
}  // namespace sttram
