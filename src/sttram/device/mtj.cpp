#include "sttram/device/mtj.hpp"

#include "sttram/common/error.hpp"

namespace sttram {

MtjDevice::MtjDevice(MtjParams params, MtjState initial)
    : params_(params),
      model_(std::make_unique<LinearRiModel>(params)),
      switching_(params),
      state_(initial) {}

Ohm MtjDevice::read_resistance(Ampere i) {
  ++reads_;
  return model_->resistance(state_, i);
}

bool MtjDevice::apply_write_pulse(WritePolarity polarity, Ampere amplitude,
                                  Second width, Xoshiro256* rng) {
  require(amplitude.value() >= 0.0,
          "apply_write_pulse: amplitude is a magnitude; use polarity for "
          "direction");
  ++writes_;
  const MtjState target = polarity == WritePolarity::kToParallel
                              ? MtjState::kParallel
                              : MtjState::kAntiParallel;
  if (state_ == target) return true;  // a pulse in this direction is a no-op
  bool switched = false;
  if (amplitude >= switching_.critical_current(width)) {
    switched = true;
  } else if (rng != nullptr) {
    switched = switching_.attempt_switch(*rng, amplitude, width);
  }
  if (switched) {
    state_ = target;
    ++switches_;
  }
  return state_ == target;
}

}  // namespace sttram
