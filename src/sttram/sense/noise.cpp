#include "sttram/sense/noise.hpp"

#include <cmath>

#include "sttram/common/constants.hpp"
#include "sttram/common/error.hpp"

namespace sttram {

Volt ktc_noise(Farad capacitance, double kelvin) {
  require(capacitance.value() > 0.0, "ktc_noise: capacitance must be > 0");
  require(kelvin > 0.0, "ktc_noise: temperature must be > 0");
  return Volt(std::sqrt(constants::kBoltzmann * kelvin /
                        capacitance.value()));
}

ReadNoiseBudget read_noise_budget(Farad c_storage, Farad c_bitline,
                                  Farad c_comparator_input, double alpha,
                                  double kelvin) {
  require(alpha > 0.0 && alpha < 1.0,
          "read_noise_budget: alpha must be in (0, 1)");
  ReadNoiseBudget b;
  b.ktc_c1 = ktc_noise(c_storage, kelvin);
  b.bitline = alpha * ktc_noise(c_bitline, kelvin);
  b.divider_output = ktc_noise(c_comparator_input, kelvin);
  const double total_sq = b.ktc_c1.value() * b.ktc_c1.value() +
                          b.bitline.value() * b.bitline.value() +
                          b.divider_output.value() *
                              b.divider_output.value();
  b.total = Volt(std::sqrt(total_sq));
  return b;
}

}  // namespace sttram
