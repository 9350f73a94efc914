#include "sttram/cell/array.hpp"

#include "sttram/common/error.hpp"
#include "sttram/stats/distributions.hpp"

namespace sttram {

MemoryArray::MemoryArray(ArrayGeometry geometry,
                         const MtjVariationModel& variation,
                         double sigma_access, std::uint64_t seed)
    : geometry_(geometry) {
  require(geometry.rows >= 1 && geometry.cols >= 1,
          "MemoryArray: geometry must be non-empty");
  require(sigma_access >= 0.0, "MemoryArray: sigma_access must be >= 0");
  cells_.reserve(geometry.cell_count());
  const Xoshiro256 master(seed);
  const Ohm r_access_nominal(917.0);
  for (std::size_t k = 0; k < geometry.cell_count(); ++k) {
    Xoshiro256 stream = master.fork(k);
    ArrayCell c;
    c.params = variation.sample(stream);
    c.r_access = Ohm(sample_lognormal_median(stream, r_access_nominal.value(),
                                             sigma_access));
    // Checkerboard initial data exercises both states everywhere.
    const std::size_t row = k / geometry.cols;
    const std::size_t col = k % geometry.cols;
    c.state = from_bit(((row + col) % 2) == 1);
    cells_.push_back(c);
  }
}

std::size_t MemoryArray::index(std::size_t row, std::size_t col) const {
  require(row < geometry_.rows && col < geometry_.cols,
          "MemoryArray: cell coordinates out of range");
  return row * geometry_.cols + col;
}

const ArrayCell& MemoryArray::cell(std::size_t row, std::size_t col) const {
  return cells_[index(row, col)];
}

ArrayCell& MemoryArray::cell(std::size_t row, std::size_t col) {
  return cells_[index(row, col)];
}

void MemoryArray::store(std::size_t row, std::size_t col, bool bit) {
  cells_[index(row, col)].state = from_bit(bit);
}

bool MemoryArray::stored(std::size_t row, std::size_t col) const {
  return to_bit(cells_[index(row, col)].state);
}

}  // namespace sttram
