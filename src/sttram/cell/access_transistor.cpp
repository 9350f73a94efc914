#include "sttram/cell/access_transistor.hpp"

#include <cmath>

#include "sttram/common/error.hpp"
#include "sttram/common/numeric.hpp"

namespace sttram {

FixedAccessResistor::FixedAccessResistor(Ohm r) : r_(r) {
  require(r.value() >= 0.0, "FixedAccessResistor: resistance must be >= 0");
}

std::unique_ptr<AccessDeviceModel> FixedAccessResistor::clone() const {
  return std::make_unique<FixedAccessResistor>(*this);
}

LinearRegionNmos::LinearRegionNmos(Params p) : params_(p) {
  require(p.beta > 0.0, "LinearRegionNmos: beta must be > 0");
  require(p.vgs > p.vth, "LinearRegionNmos: device must be on (vgs > vth)");
}

LinearRegionNmos LinearRegionNmos::with_on_resistance(Ohm r_on, Volt vgs,
                                                      Volt vth) {
  require(r_on.value() > 0.0, "with_on_resistance: r_on must be > 0");
  require(vgs > vth, "with_on_resistance: vgs must exceed vth");
  Params p;
  p.vth = vth;
  p.vgs = vgs;
  p.beta = 1.0 / (r_on.value() * (vgs - vth).value());
  return LinearRegionNmos(p);
}

Ohm LinearRegionNmos::resistance(Ampere i) const {
  const double current = std::fabs(i.value());
  const double vov = (params_.vgs - params_.vth).value();
  if (current == 0.0) return Ohm(1.0 / (params_.beta * vov));
  // Triode equation: I = beta * (vov * vds - vds^2 / 2), solved for the
  // smaller root (the physical linear-region solution, vds <= vov).
  const QuadraticRoots roots =
      solve_quadratic(-params_.beta / 2.0, params_.beta * vov, -current);
  if (roots.count == 0) {
    // Beyond the triode peak: the device has saturated.  Report the
    // saturation resistance vds=vov / Idsat (the series model is no
    // longer accurate here and callers should keep read currents small).
    const double idsat = params_.beta * vov * vov / 2.0;
    return Ohm(vov / idsat * (current / idsat));
  }
  const double vds = roots.lo > 0.0 ? roots.lo : roots.hi;
  return Ohm(vds / current);
}

std::unique_ptr<AccessDeviceModel> LinearRegionNmos::clone() const {
  return std::make_unique<LinearRegionNmos>(*this);
}

}  // namespace sttram
