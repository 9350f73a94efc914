#include "sttram/sense/scheme.hpp"

#include <string>

#include "sttram/common/error.hpp"

namespace sttram {
namespace {

/// Folds every double a linear-law operating-point solve consumes.
std::uint64_t scheme_key(OpKind kind, const MtjParams& nominal, Ohm r_access,
                         Ampere i_read, double alpha) {
  std::uint64_t key = op_key(kind);
  key = op_key_mix(key, nominal.r_low0.value());
  key = op_key_mix(key, nominal.r_high0.value());
  key = op_key_mix(key, nominal.droop_low.value());
  key = op_key_mix(key, nominal.droop_high.value());
  key = op_key_mix(key, nominal.i_droop_ref.value());
  key = op_key_mix(key, r_access.value());
  key = op_key_mix(key, i_read.value());
  key = op_key_mix(key, alpha);
  return key;
}

/// `Scheme`'s paper_beta() on (nominal, r_access), memoized under `kind`.
template <class Scheme>
double cached_beta(OpKind kind, const MtjParams& nominal, Ohm r_access,
                   const SelfRefConfig& config) {
  const std::uint64_t key =
      scheme_key(kind, nominal, r_access, config.i_max, config.alpha);
  return OpCache::local_shard()
      .get_or_compute(key,
                      [&] {
                        const Scheme scheme(nominal, r_access, config);
                        OperatingPoint op;
                        op.beta = scheme.paper_beta();
                        return op;
                      })
      .beta;
}

}  // namespace

void throw_no_read_flow(SchemeId id) {
  throw InvalidArgument(std::string(scheme_row(id).label) +
                        " sensing has no read flow");
}

SchemeId scheme_from_key(std::string_view key) {
  for (const SchemeRow& row : kSchemeTable) {
    if (key == row.key) return row.id;
  }
  throw InvalidArgument("unknown sensing scheme '" + std::string(key) + "'");
}

double cached_destructive_beta(const MtjParams& nominal, Ohm r_access,
                               const SelfRefConfig& config) {
  return cached_beta<DestructiveSelfReference>(OpKind::kDestructiveBeta,
                                               nominal, r_access, config);
}

double cached_nondestructive_beta(const MtjParams& nominal, Ohm r_access,
                                  const SelfRefConfig& config) {
  return cached_beta<NondestructiveSelfReference>(
      OpKind::kNondestructiveBeta, nominal, r_access, config);
}

Volt cached_shared_v_ref(const MtjParams& nominal, Ohm r_access,
                         Ampere i_read) {
  const std::uint64_t key =
      scheme_key(OpKind::kSharedVRef, nominal, r_access, i_read, 0.0);
  return Volt(OpCache::local_shard()
                  .get_or_compute(key,
                                  [&] {
                                    const ConventionalSensing scheme(
                                        nominal, r_access, i_read);
                                    OperatingPoint op;
                                    op.v_ref =
                                        scheme.midpoint_reference().value();
                                    return op;
                                  })
                  .v_ref);
}

OperatingPoint designed_point(SchemeId id, const MtjParams& device,
                              Ohm r_access, const SelfRefConfig& selfref,
                              double beta) {
  OperatingPoint point;
  switch (id) {
    case SchemeId::kConventional:
      point.v_ref =
          cached_shared_v_ref(device, r_access, selfref.i_max).value();
      break;
    case SchemeId::kReferenceCell:
      break;
    case SchemeId::kDestructive:
      point.beta = beta > 0.0 ? beta
                              : cached_destructive_beta(device, r_access,
                                                        selfref);
      break;
    case SchemeId::kNondestructive:
      point.beta = beta > 0.0 ? beta
                              : cached_nondestructive_beta(device, r_access,
                                                           selfref);
      break;
  }
  return point;
}

std::vector<Ampere> scheme_read_currents(SchemeId id, const MtjParams& device,
                                         Ohm r_access,
                                         const SelfRefConfig& selfref) {
  const Ampere i2 = selfref.i_max;
  if (scheme_row(id).externally_referenced) return {i2};
  return {i2 / designed_point(id, device, r_access, selfref).beta, i2};
}

SenseMargins read_margins(SchemeId id, const RiModel& model,
                          const AccessDeviceModel& access,
                          const SelfRefConfig& selfref,
                          const OperatingPoint& point) {
  switch (id) {
    case SchemeId::kConventional:
      return ConventionalSensing(model, access, selfref.i_max)
          .margins(Volt(point.v_ref));
    case SchemeId::kDestructive:
      return DestructiveSelfReference(model, access, selfref)
          .margins(point.beta);
    case SchemeId::kNondestructive:
      return NondestructiveSelfReference(model, access, selfref)
          .margins(point.beta);
    case SchemeId::kReferenceCell:
      break;
  }
  throw_no_read_flow(id);
}

}  // namespace sttram
