#include "sttram/fault/coverage.hpp"

#include <array>

#include "sttram/obs/metrics.hpp"

namespace sttram::fault {
namespace {

constexpr std::array<FaultType, 7> kClasses = {
    FaultType::kStuckAtZero,   FaultType::kStuckAtOne,
    FaultType::kTransitionUp,  FaultType::kTransitionDown,
    FaultType::kReadDisturb,   FaultType::kRetention,
    FaultType::kDriftOutlier,
};

std::size_t class_index(FaultType type) {
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    if (kClasses[k] == type) return k;
  }
  return kClasses.size();
}

}  // namespace

MarchCoverageReport run_march_with_faults(
    TestableArray& array, const FaultMap& map, SchemeId scheme,
    const std::vector<MarchElement>& algorithm) {
  map.apply_to(array);
  const MarchResult result = run_march(array, scheme, algorithm);

  std::array<FaultClassCoverage, kClasses.size()> tally{};
  for (std::size_t k = 0; k < kClasses.size(); ++k) {
    tally[k].type = kClasses[k];
    tally[k].injected = map.count(kClasses[k]);
  }

  MarchCoverageReport report;
  report.scheme = scheme;
  report.operations = result.operations;
  report.injected_cells = map.total();
  for (const auto& [row, col] : result.failing_cells) {
    const FaultType type = map.type_at(row, col);
    if (type == FaultType::kNone) {
      ++report.extra_flags;
      continue;
    }
    ++report.detected_cells;
    ++tally[class_index(type)].detected;
  }
  for (const FaultClassCoverage& c : tally) {
    if (c.injected > 0) report.classes.push_back(c);
  }
  STTRAM_OBS_ADD("fault.march_detected", report.detected_cells);
  STTRAM_OBS_SET_GAUGE("fault.march_coverage", report.coverage());
  return report;
}

MarchCoverageReport run_march_with_faults(TestableArray& array,
                                          const FaultMap& map,
                                          SchemeId scheme) {
  return run_march_with_faults(array, map, scheme, march_c_minus());
}

}  // namespace sttram::fault
