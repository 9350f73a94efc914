#include "sttram/sim/march.hpp"

#include <algorithm>

#include "sttram/common/error.hpp"

namespace sttram {

std::string_view to_string(FaultType f) {
  switch (f) {
    case FaultType::kNone:
      return "none";
    case FaultType::kStuckAtZero:
      return "stuck-at-0";
    case FaultType::kStuckAtOne:
      return "stuck-at-1";
    case FaultType::kTransitionUp:
      return "transition 0->1";
    case FaultType::kTransitionDown:
      return "transition 1->0";
    case FaultType::kReadDisturb:
      return "read-disturb";
    case FaultType::kRetention:
      return "retention";
    case FaultType::kDriftOutlier:
      return "drift outlier";
  }
  return "?";
}

TestableArray::TestableArray(ArrayGeometry geometry,
                             const MtjVariationModel& variation,
                             std::uint64_t seed, SelfRefConfig selfref,
                             Volt required_margin)
    : array_(geometry, variation, /*sigma_access=*/0.02, seed),
      faults_(geometry.cell_count(), FaultType::kNone),
      fault_params_(geometry.cell_count(), 0.0),
      last_write_(geometry.cell_count(), 0),
      selfref_(selfref),
      required_margin_(required_margin) {
  for (const SchemeRow& row : kSchemeTable) {
    points_[scheme_index(row.id)] = designed_point(
        row.id, MtjParams::paper_calibrated(), Ohm(917.0), selfref);
  }
}

std::size_t TestableArray::index(std::size_t row, std::size_t col) const {
  require(row < array_.geometry().rows && col < array_.geometry().cols,
          "TestableArray: cell coordinates out of range");
  return row * array_.geometry().cols + col;
}

void TestableArray::inject(std::size_t row, std::size_t col,
                           FaultType fault, double param) {
  const std::size_t idx = index(row, col);
  faults_[idx] = fault;
  fault_params_[idx] = param;
  switch (fault) {
    case FaultType::kStuckAtZero:
      array_.store(row, col, false);  // stuck cells sit in their state
      break;
    case FaultType::kStuckAtOne:
      array_.store(row, col, true);
      break;
    case FaultType::kRetention:
      if (param <= 0.0) {
        fault_params_[idx] =
            static_cast<double>(array_.geometry().cell_count());
      }
      break;
    case FaultType::kDriftOutlier: {
      // The outlier's whole junction resistance shifts multiplicatively
      // (a barrier-thickness excursion): common-mode for both states.
      const double factor = param > 0.0 ? param : 1.8;
      fault_params_[idx] = factor;
      ArrayCell& cell = array_.cell(row, col);
      cell.params = cell.params.scaled(factor, 1.0);
      break;
    }
    default:
      break;
  }
}

void TestableArray::maybe_decay(std::size_t row, std::size_t col,
                                std::size_t idx) {
  if (faults_[idx] != FaultType::kRetention) return;
  const auto horizon = static_cast<std::uint64_t>(fault_params_[idx]);
  if (ops_ - last_write_[idx] >= horizon) {
    array_.store(row, col, false);  // relax to the parallel (0) state
  }
}

void TestableArray::write(std::size_t row, std::size_t col, bool bit) {
  ++ops_;
  const std::size_t idx = index(row, col);
  maybe_decay(row, col, idx);
  last_write_[idx] = ops_;
  switch (faults_[idx]) {
    case FaultType::kStuckAtZero:
      return;  // pinned at 0
    case FaultType::kStuckAtOne:
      return;  // pinned at 1
    case FaultType::kTransitionUp:
      if (bit && !array_.stored(row, col)) return;  // 0->1 fails
      break;
    case FaultType::kTransitionDown:
      if (!bit && array_.stored(row, col)) return;  // 1->0 fails
      break;
    case FaultType::kNone:
    case FaultType::kReadDisturb:
    case FaultType::kRetention:
    case FaultType::kDriftOutlier:
      break;  // writes succeed; these classes corrupt reads / idle time
  }
  array_.store(row, col, bit);
}

bool TestableArray::sense(std::size_t row, std::size_t col,
                          SchemeId scheme) {
  ++ops_;
  const std::size_t idx = index(row, col);
  maybe_decay(row, col, idx);
  if (faults_[idx] == FaultType::kReadDisturb) {
    // Read-destructive fault: the read current flips the free layer and
    // the comparison resolves the new, wrong state.
    array_.store(row, col, !array_.stored(row, col));
  }
  return read(row, col, scheme);
}

bool TestableArray::read(std::size_t row, std::size_t col,
                         SchemeId scheme) const {
  const bool value = array_.stored(row, col);
  const ArrayCell& cell = array_.cell(row, col);
  const SenseMargins m = read_margins(
      scheme, LinearRiModel(cell.params), FixedAccessResistor(cell.r_access),
      selfref_, points_[scheme_index(scheme)]);
  const Volt margin = value ? m.sm1 : m.sm0;
  // A margin below the amplifier requirement misreads the bit.
  if (margin < required_margin_) return !value;
  return value;
}

MarchResult run_march(TestableArray& array, SchemeId scheme,
                      const std::vector<MarchElement>& algorithm) {
  MarchResult result;
  const std::size_t rows = array.geometry().rows;
  const std::size_t cols = array.geometry().cols;
  const std::size_t n = rows * cols;
  std::vector<bool> flagged(n, false);

  for (const MarchElement& element : algorithm) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = element.ascending ? k : n - 1 - k;
      const std::size_t row = idx / cols;
      const std::size_t col = idx % cols;
      for (const MarchOp& op : element.ops) {
        ++result.operations;
        if (op.is_write) {
          array.write(row, col, op.value);
        } else {
          const bool got = array.sense(row, col, scheme);
          if (got != op.value && !flagged[idx]) {
            flagged[idx] = true;
            result.failing_cells.emplace_back(row, col);
          }
        }
      }
    }
  }
  std::sort(result.failing_cells.begin(), result.failing_cells.end());
  return result;
}

namespace {

MarchOp w(bool v) { return MarchOp{true, v}; }
MarchOp r(bool v) { return MarchOp{false, v}; }

}  // namespace

std::vector<MarchElement> march_c_minus() {
  return {
      {true, {w(false)}},
      {true, {r(false), w(true)}},
      {true, {r(true), w(false)}},
      {false, {r(false), w(true)}},
      {false, {r(true), w(false)}},
      {false, {r(false)}},
  };
}

MarchResult run_march_c_minus(TestableArray& array, SchemeId scheme) {
  return run_march(array, scheme, march_c_minus());
}

}  // namespace sttram
