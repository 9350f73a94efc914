// Memory test: fault injection and March algorithms over the varied
// array, with the read performed by a selectable sensing scheme.
//
// This is the manufacturing-test view of the paper's result: a March
// test that reads with conventional referenced sensing flags every
// variation victim as a faulty bit (yield loss), while the same array
// read with a self-reference scheme passes — the sensing scheme recovers
// those bits.  Injected stuck-at / transition faults are still caught by
// every scheme.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sttram/cell/array.hpp"
#include "sttram/sense/scheme.hpp"

namespace sttram {

/// Cell fault models: the classic static faults plus the dynamic classes
/// of the STT-MRAM testing literature (read-destructive, retention and
/// resistance-drift faults).  The fault-injection layer in
/// `src/sttram/fault/` decides *which* cells carry these faults (with
/// probabilities derived from the device physics); TestableArray
/// implements their behavioral semantics.
enum class FaultType {
  kNone,
  kStuckAtZero,     ///< cell always reads/holds 0
  kStuckAtOne,      ///< cell always reads/holds 1
  kTransitionUp,    ///< cell cannot switch 0 -> 1
  kTransitionDown,  ///< cell cannot switch 1 -> 0
  /// Read-destructive fault (RDF): the read current flips the free layer
  /// and the sense amp resolves the *new* (wrong) state.  Behavioral
  /// model of a cell whose critical current is so degraded that the read
  /// disturb budget is blown on every access.
  kReadDisturb,
  /// Retention fault: the stored state thermally relaxes to the parallel
  /// (0) state once `param` operations have elapsed since the last write
  /// (param = 0 uses one full array sweep as the decay horizon).
  kRetention,
  /// Resistance-drift outlier: the whole junction resistance is scaled
  /// by `param` (default 1.8) — a barrier-thickness outlier.  Schemes
  /// comparing against an external reference misread the cell; the
  /// self-reference schemes track the common-mode shift and recover it.
  kDriftOutlier,
};

[[nodiscard]] std::string_view to_string(FaultType f);

/// An array under test: process-varied cells + injected faults +
/// scheme-accurate reads.  A read runs at its scheme's designed point on
/// the nominal device (designed_point); a scheme without a read flow is
/// refused with InvalidArgument.
class TestableArray {
 public:
  /// `required_margin` models the sense amplifier: a read whose margin
  /// for the stored state falls below it returns the wrong value.
  TestableArray(ArrayGeometry geometry, const MtjVariationModel& variation,
                std::uint64_t seed, SelfRefConfig selfref = {},
                Volt required_margin = Volt(0.0));

  [[nodiscard]] const ArrayGeometry& geometry() const {
    return array_.geometry();
  }

  /// Injects a fault into one cell.  `param` refines the dynamic
  /// classes: the decay horizon in operations for kRetention (0 = one
  /// array sweep) and the resistance scale factor for kDriftOutlier
  /// (0 = 1.8); ignored by the static classes.
  void inject(std::size_t row, std::size_t col, FaultType fault,
              double param = 0.0);

  /// Writes a bit, honoring stuck-at / transition faults.  Counts as one
  /// operation for the retention clock.
  void write(std::size_t row, std::size_t col, bool bit);

  /// Performs one read access with the given scheme, honoring the
  /// dynamic faults: retention victims decay before the sense, and a
  /// read-disturb victim flips *during* the access so the (wrong) new
  /// state is what gets sensed.  This is the operation March algorithms
  /// issue; counts as one operation for the retention clock.
  [[nodiscard]] bool sense(std::size_t row, std::size_t col,
                           SchemeId scheme);

  /// Pure margin-model read of the current state: no state change, no
  /// operation counted.  The scheme's margin math decides whether the
  /// stored value is recovered or misread.
  [[nodiscard]] bool read(std::size_t row, std::size_t col,
                          SchemeId scheme) const;

  /// Operations (reads + writes) issued so far — the retention clock.
  [[nodiscard]] std::uint64_t operations() const { return ops_; }

 private:
  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const;
  /// Applies retention decay to a victim whose horizon has elapsed.
  void maybe_decay(std::size_t row, std::size_t col, std::size_t idx);

  MemoryArray array_;
  std::vector<FaultType> faults_;
  std::vector<double> fault_params_;
  std::vector<std::uint64_t> last_write_;
  std::uint64_t ops_ = 0;
  SelfRefConfig selfref_;
  Volt required_margin_;
  std::array<OperatingPoint, kSchemeCount> points_;  ///< by SchemeId
};

/// One March element: a sweep direction and a sequence of operations.
struct MarchOp {
  bool is_write = false;
  bool value = false;  ///< expected value for reads, written value for writes
};
struct MarchElement {
  bool ascending = true;
  std::vector<MarchOp> ops;
};

/// Result of running a March algorithm.
struct MarchResult {
  std::size_t operations = 0;
  /// (row, col) of every mismatching read (deduplicated).
  std::vector<std::pair<std::size_t, std::size_t>> failing_cells;
  [[nodiscard]] bool passed() const { return failing_cells.empty(); }
};

/// Runs an arbitrary March algorithm with the given read scheme.
MarchResult run_march(TestableArray& array, SchemeId scheme,
                      const std::vector<MarchElement>& algorithm);

/// March C-: {up(w0); up(r0,w1); up(r1,w0); down(r0,w1); down(r1,w0);
/// down(r0)} — detects stuck-at, transition and coupling faults.
std::vector<MarchElement> march_c_minus();

MarchResult run_march_c_minus(TestableArray& array, SchemeId scheme);

}  // namespace sttram
