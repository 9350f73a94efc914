// Memory array model: a grid of varied MTJ cells organized in bit lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sttram/cell/access_transistor.hpp"
#include "sttram/cell/bitline.hpp"
#include "sttram/common/units.hpp"
#include "sttram/device/mtj_params.hpp"
#include "sttram/device/mtj_state.hpp"
#include "sttram/device/ri_curve.hpp"
#include "sttram/device/variation.hpp"

namespace sttram {

/// Geometry of an array.
struct ArrayGeometry {
  std::size_t rows = 128;  ///< cells per bit line (word lines)
  std::size_t cols = 128;  ///< bit lines
  [[nodiscard]] std::size_t cell_count() const { return rows * cols; }

  /// The paper's 16-kb test chip: 128 x 128.
  static ArrayGeometry test_chip_16kb() { return {128, 128}; }
};

/// One instantiated (process-varied) cell of the array.
struct ArrayCell {
  MtjParams params;               ///< sampled device parameters
  MtjState state = MtjState::kParallel;
  /// Access-transistor on-resistance sampled for this cell.
  Ohm r_access{917.0};
};

/// A rows x cols array of independently sampled cells.  The array stores
/// parameters (not live device objects) so a 16-kb instance stays small;
/// resistances are evaluated through the calibrated linear R-I law.
class MemoryArray {
 public:
  /// Samples every cell from `variation` using decorrelated streams from
  /// `seed`; access-device resistance gets a lognormal factor with sigma
  /// `sigma_access`.  Initial data is a checkerboard (alternating 0/1).
  MemoryArray(ArrayGeometry geometry, const MtjVariationModel& variation,
              double sigma_access, std::uint64_t seed);

  [[nodiscard]] const ArrayGeometry& geometry() const { return geometry_; }
  [[nodiscard]] const ArrayCell& cell(std::size_t row, std::size_t col) const;
  [[nodiscard]] ArrayCell& cell(std::size_t row, std::size_t col);

  /// Writes a data value (no electrical modeling; array-level state).
  void store(std::size_t row, std::size_t col, bool bit);
  [[nodiscard]] bool stored(std::size_t row, std::size_t col) const;

 private:
  [[nodiscard]] std::size_t index(std::size_t row, std::size_t col) const;

  ArrayGeometry geometry_;
  std::vector<ArrayCell> cells_;
};

}  // namespace sttram
