// Sampling and thermal noise budget of the read path — justifies the
// input-noise number the latch model consumes and quantifies how much of
// the ~12 mV nondestructive margin the physics takes back.
#pragma once

#include "sttram/common/units.hpp"

namespace sttram {

/// kT/C noise: the total integrated thermal noise of any RC node (and
/// the RMS error frozen onto a sampling capacitor when its switch
/// opens) is sqrt(kT/C), independent of R.
Volt ktc_noise(Farad capacitance, double kelvin = 300.0);

/// Input-referred RMS noise of the nondestructive comparison at the
/// sense instant:
///  * kT/C1 frozen onto the sampling capacitor when SLT1 opens,
///  * the live bit-line node's kT/C_BL, attenuated by the divider ratio
///    alpha on its way to the comparator,
///  * the divider output node's own kT/C at the comparator input.
struct ReadNoiseBudget {
  Volt ktc_c1{0.0};
  Volt bitline{0.0};
  Volt divider_output{0.0};
  Volt total{0.0};  ///< RMS combination
};

ReadNoiseBudget read_noise_budget(Farad c_storage, Farad c_bitline,
                                  Farad c_comparator_input, double alpha,
                                  double kelvin = 300.0);

}  // namespace sttram
