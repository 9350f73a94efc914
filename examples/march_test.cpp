// Example: manufacturing test with March C- — yield recovery by sensing
// scheme.
//
// Runs March C- over a process-varied 16-kb array three times, reading
// with each sensing scheme, plus a run with injected hard faults.  The
// conventional read flags variation victims as bad bits; the
// self-reference schemes recover them, while still catching the real
// (stuck-at / transition) defects.
//
// Usage: march_test [sigma_common]
//   sigma_common must be a number >= 0 (default 0.09); else exits 2.
#include <cstdio>
#include <optional>

#include "sttram/common/token.hpp"
#include "sttram/io/table.hpp"
#include "sttram/sim/march.hpp"

using namespace sttram;

int main(int argc, char** argv) {
  double sigma = 0.09;
  if (argc > 1) {
    const std::optional<double> v = parse_number(argv[1]);
    if (!v || *v < 0.0) {
      std::fprintf(stderr,
                   "march_test: sigma_common must be a number >= 0, got "
                   "'%s'\n",
                   argv[1]);
      return 2;
    }
    sigma = *v;
  }
  const MtjVariationModel variation(MtjParams::paper_calibrated(),
                                    VariationParams{sigma, 0.02, 0.0});
  const ArrayGeometry geometry{64, 64};  // 4 kb keeps the demo snappy

  std::printf("March C- on a %zux%zu array, sigma_common = %.2f\n\n",
              geometry.rows, geometry.cols, sigma);

  TextTable t({"read scheme", "ops", "failing bits", "verdict"});
  for (const ReadScheme scheme :
       {ReadScheme::kConventional, ReadScheme::kDestructive,
        ReadScheme::kNondestructive}) {
    TestableArray array(geometry, variation, 11);
    const MarchResult r = run_march_c_minus(array, scheme);
    t.add_row({std::string(to_string(scheme)),
               std::to_string(r.operations),
               std::to_string(r.failing_cells.size()),
               r.passed() ? "PASS" : "FAIL (bits would be discarded)"});
  }
  std::printf("%s\n", t.to_string().c_str());

  std::printf("now with three injected hard defects "
              "(SA0 @ (3,7), SA1 @ (40,12), TF @ (20,20)):\n\n");
  TextTable t2({"read scheme", "failing bits", "defects caught"});
  for (const ReadScheme scheme :
       {ReadScheme::kConventional, ReadScheme::kNondestructive}) {
    TestableArray array(geometry, variation, 11);
    array.inject(3, 7, FaultType::kStuckAtZero);
    array.inject(40, 12, FaultType::kStuckAtOne);
    array.inject(20, 20, FaultType::kTransitionUp);
    const MarchResult r = run_march_c_minus(array, scheme);
    std::size_t caught = 0;
    for (const auto& [row, col] : r.failing_cells) {
      if ((row == 3 && col == 7) || (row == 40 && col == 12) ||
          (row == 20 && col == 20)) {
        ++caught;
      }
    }
    t2.add_row({std::string(to_string(scheme)),
                std::to_string(r.failing_cells.size()),
                std::to_string(caught) + "/3"});
  }
  std::printf("%s\n", t2.to_string().c_str());
  std::printf(
      "Self-reference sensing separates real defects from variation\n"
      "victims: the failing-bit list shrinks to the injected faults.\n");
  return 0;
}
