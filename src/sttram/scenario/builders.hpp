// One config builder per experiment kind: validated params + a seed ->
// the library configuration the kind runs.  The campaign adapters call
// them with the instance seed and `sttram_cli` with its command's seed,
// so both surfaces share each kind's defaults (its ParamSchema's), its
// cross-field rules and the traffic fault hook.  A builder reads an
// absent field at its schema default and throws InvalidArgument when a
// cross-field rule fails, spelling fields with `names`.  Implemented in
// adapters.cpp, next to each kind's schema and adapter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "sttram/engine/bank_sim.hpp"
#include "sttram/engine/controller/controller.hpp"
#include "sttram/fault/fault_model.hpp"
#include "sttram/fault/traffic_faults.hpp"
#include "sttram/fault/yield_overlay.hpp"
#include "sttram/io/json.hpp"
#include "sttram/scenario/schema.hpp"
#include "sttram/sim/march.hpp"
#include "sttram/sim/tail.hpp"
#include "sttram/sim/yield.hpp"

namespace sttram::scenario {

[[nodiscard]] YieldConfig build_yield(const Json& params, std::uint64_t seed,
                                      const FieldNames& names = {});

/// The arguments of estimate_margin_tail().
struct TailSetup {
  TailConfig config;
  std::uint64_t seed = 1;
  std::size_t trials = 0;
};
[[nodiscard]] TailSetup build_tail(const Json& params, std::uint64_t seed,
                                   const FieldNames& names = {});

/// A traffic-engine config plus the fault hook it points at, which
/// exists only when `faults_ber` is set (else the exact fault-free
/// path).  Rule: `ecc` needs `faults_ber`.
template <class Config>
struct TrafficSetup {
  Config config;
  std::unique_ptr<fault::TrafficFaultModel> faults;
};
[[nodiscard]] TrafficSetup<engine::TrafficConfig> build_traffic(
    const Json& params, std::uint64_t seed, const FieldNames& names = {});
/// Rule: `requests` >= `channels`.
[[nodiscard]] TrafficSetup<engine::controller::ControllerConfig>
build_controller(const Json& params, std::uint64_t seed,
                 const FieldNames& names = {});

/// The arguments of fault::run_yield_with_faults().
struct FaultOverlaySetup {
  YieldConfig yield;
  fault::FaultConfig faults;
  fault::BerConfig ber;
};
[[nodiscard]] FaultOverlaySetup build_fault_overlay(
    const Json& params, std::uint64_t seed, const FieldNames& names = {});

/// One March C- run: the fault map and the tester, both seeded `seed`.
struct MarchSetup {
  ArrayGeometry geometry;
  fault::FaultConfig faults;
  SchemeId scheme = SchemeId::kNondestructive;
  std::uint64_t seed = 1;
};
[[nodiscard]] MarchSetup build_march(const Json& params, std::uint64_t seed,
                                     const FieldNames& names = {});

}  // namespace sttram::scenario
