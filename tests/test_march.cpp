// Tests for the March-test module: fault models, algorithm coverage,
// and the sensing-scheme yield-recovery effect.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "sttram/common/error.hpp"
#include "sttram/sim/march.hpp"

namespace sttram {
namespace {

MtjVariationModel no_variation() {
  return MtjVariationModel(MtjParams::paper_calibrated(),
                           VariationParams::none());
}

/// The bit cell (row, col) holds, as a nominal array reads it back:
/// TestableArray::read is a pure margin-model read (no state change, no
/// operation counted), and without variation every margin is positive.
bool stored(const TestableArray& array, std::size_t row, std::size_t col) {
  return array.read(row, col, SchemeId::kNondestructive);
}

/// MATS+: {up(w0); up(r0,w1); down(r1,w0)}, as {is_write, value} ops.
std::vector<MarchElement> mats_plus() {
  return {
      {true, {{true, false}}},
      {true, {{false, false}, {true, true}}},
      {false, {{false, true}, {true, false}}},
  };
}

TEST(March, CleanArrayPassesEveryScheme) {
  for (const SchemeId scheme :
       {SchemeId::kConventional, SchemeId::kDestructive,
        SchemeId::kNondestructive}) {
    TestableArray array({8, 8}, no_variation(), 1);
    const MarchResult r = run_march_c_minus(array, scheme);
    EXPECT_TRUE(r.passed()) << scheme_row(scheme).label;
    // March C-: 6 elements, 10 ops per cell total.
    EXPECT_EQ(r.operations, 8u * 8u * 10u);
  }
}

TEST(March, DetectsStuckAtFaults) {
  TestableArray array({8, 8}, no_variation(), 1);
  array.inject(2, 3, FaultType::kStuckAtZero);
  array.inject(5, 6, FaultType::kStuckAtOne);
  const MarchResult r =
      run_march_c_minus(array, SchemeId::kNondestructive);
  ASSERT_EQ(r.failing_cells.size(), 2u);
  EXPECT_EQ(r.failing_cells[0], (std::pair<std::size_t, std::size_t>{2, 3}));
  EXPECT_EQ(r.failing_cells[1], (std::pair<std::size_t, std::size_t>{5, 6}));
}

TEST(March, DetectsTransitionFaults) {
  for (const FaultType f :
       {FaultType::kTransitionUp, FaultType::kTransitionDown}) {
    TestableArray array({6, 6}, no_variation(), 2);
    array.inject(1, 1, f);
    const MarchResult r =
        run_march_c_minus(array, SchemeId::kNondestructive);
    ASSERT_EQ(r.failing_cells.size(), 1u)
        << "fault type " << static_cast<int>(f);
    EXPECT_EQ(r.failing_cells[0],
              (std::pair<std::size_t, std::size_t>{1, 1}));
  }
}

TEST(March, MatsPlusAlsoCatchesStuckAt) {
  TestableArray array({6, 6}, no_variation(), 3);
  array.inject(0, 5, FaultType::kStuckAtOne);
  const MarchResult r =
      run_march(array, SchemeId::kNondestructive, mats_plus());
  ASSERT_EQ(r.failing_cells.size(), 1u);
  EXPECT_EQ(r.operations, 6u * 6u * 5u);
}

TEST(March, FaultModelSemantics) {
  TestableArray array({4, 4}, no_variation(), 4);
  array.inject(0, 0, FaultType::kStuckAtZero);
  array.write(0, 0, true);
  EXPECT_FALSE(stored(array, 0, 0));
  array.inject(1, 1, FaultType::kTransitionUp);
  array.write(1, 1, false);
  array.write(1, 1, true);  // 0 -> 1 blocked
  EXPECT_FALSE(stored(array, 1, 1));
  array.inject(2, 2, FaultType::kTransitionDown);
  array.write(2, 2, true);   // starts from checkerboard; force a 1
  array.write(2, 2, false);  // 1 -> 0 blocked
  EXPECT_TRUE(stored(array, 2, 2));
  EXPECT_THROW(array.inject(9, 0, FaultType::kNone), InvalidArgument);
}

TEST(March, VariationVictimsFailOnlyWithConventionalRead) {
  // A strongly varied array read against a shared reference misreads
  // bits; the self-reference schemes read the same array cleanly — the
  // paper's result expressed as test yield.
  const MtjVariationModel wide(MtjParams::paper_calibrated(),
                               VariationParams{0.12, 0.02, 0.0});
  TestableArray array({24, 24}, wide, 7, SelfRefConfig{}, Volt(0.0));
  const MarchResult conv =
      run_march_c_minus(array, SchemeId::kConventional);
  EXPECT_GT(conv.failing_cells.size(), 0u);
  TestableArray array2({24, 24}, wide, 7, SelfRefConfig{}, Volt(0.0));
  const MarchResult nondes =
      run_march_c_minus(array2, SchemeId::kNondestructive);
  EXPECT_TRUE(nondes.passed());
  const MarchResult destr =
      run_march_c_minus(array2, SchemeId::kDestructive);
  EXPECT_TRUE(destr.passed());
}

TEST(March, ReadSchemeDoesNotDependOnMarchState) {
  // Reads are repeatable: the same cell reads the same value twice.
  const MtjVariationModel wide(MtjParams::paper_calibrated(),
                               VariationParams{0.12, 0.02, 0.0});
  const TestableArray array({8, 8}, wide, 9);
  for (std::size_t rw = 0; rw < 8; ++rw) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_EQ(array.read(rw, c, SchemeId::kConventional),
                array.read(rw, c, SchemeId::kConventional));
    }
  }
}

}  // namespace
}  // namespace sttram
