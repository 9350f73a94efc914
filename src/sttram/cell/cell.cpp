#include "sttram/cell/cell.hpp"

namespace sttram {

OneT1JCell::OneT1JCell()
    : mtj_(MtjParams::paper_calibrated()),
      access_(std::make_unique<FixedAccessResistor>(Ohm(917.0))) {}

Volt OneT1JCell::read_bitline_voltage(Ampere i) {
  const Ohm r = mtj_.read_resistance(i) + access_->resistance(i);
  return i * r;
}

Ohm OneT1JCell::path_resistance(Ampere i) const {
  return mtj_.resistance(mtj_.state(), i) + access_->resistance(i);
}

bool OneT1JCell::write(bool bit, Ampere amplitude, Second width,
                       Xoshiro256* rng) {
  return mtj_.apply_write_pulse(polarity_for(from_bit(bit)), amplitude,
                                width, rng);
}

Joule OneT1JCell::pulse_energy(Ampere amplitude, Second width) const {
  const Ohm r = path_resistance(amplitude);
  return amplitude * amplitude * r * width;
}

}  // namespace sttram
