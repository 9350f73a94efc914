// Fault-aware march testing: injects a fault map, runs a March
// algorithm with a chosen sensing scheme and reports the detection
// coverage per fault class.
//
// This closes the loop of the paper's manufacturing-test story: the
// static defect classes must be caught by every scheme, while the
// variation/drift victims are scheme-dependent — conventional
// referenced sensing flags them (yield loss), the self-reference
// schemes recover them.
#pragma once

#include <cstdint>
#include <vector>

#include "sttram/fault/fault_model.hpp"
#include "sttram/sim/march.hpp"

namespace sttram::fault {

/// Detection tally of one injected fault class.
struct FaultClassCoverage {
  FaultType type = FaultType::kNone;
  std::size_t injected = 0;
  std::size_t detected = 0;

  [[nodiscard]] double coverage() const {
    return injected == 0 ? 1.0
                         : static_cast<double>(detected) /
                               static_cast<double>(injected);
  }
};

/// Full coverage report of one march run over an injected array.
struct MarchCoverageReport {
  SchemeId scheme = SchemeId::kNondestructive;
  std::size_t operations = 0;      ///< march operations issued
  std::size_t injected_cells = 0;  ///< faulty cells in the map
  std::size_t detected_cells = 0;  ///< faulty cells the march flagged
  /// Cells the march flagged that carry no injected fault — variation
  /// victims of the sensing scheme itself (the conventional scheme's
  /// yield loss shows up here).
  std::size_t extra_flags = 0;
  /// One entry per fault class present in the map, in enum order.
  std::vector<FaultClassCoverage> classes;

  [[nodiscard]] double coverage() const {
    return injected_cells == 0 ? 1.0
                               : static_cast<double>(detected_cells) /
                                     static_cast<double>(injected_cells);
  }
};

/// Applies `map` to `array`, runs `algorithm` with `scheme` and
/// classifies every flagged cell against the map.  Deterministic.
MarchCoverageReport run_march_with_faults(
    TestableArray& array, const FaultMap& map, SchemeId scheme,
    const std::vector<MarchElement>& algorithm);

/// March C- convenience overload.
MarchCoverageReport run_march_with_faults(TestableArray& array,
                                          const FaultMap& map,
                                          SchemeId scheme);

}  // namespace sttram::fault
