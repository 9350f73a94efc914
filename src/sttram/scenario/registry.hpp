// Experiment-kind registry: maps the `kind` string of a scenario to an
// adapter over the existing experiment layers (sim/, stats/, engine/,
// fault/, sense/).
//
// An adapter takes a validated ScenarioInstance and returns a flat JSON
// object of deterministic metrics (name -> number/bool).  Determinism
// is the registry's contract: an adapter's output must be a pure
// function of the instance (params + seed) — no wall clock, no
// environment, no global mutable state — so campaign reports are
// bit-identical across runs, machines and thread counts, and golden
// verification can diff them exactly.
//
// Adding a new experiment kind (CONTRIBUTING.md):
//   1. declare its ParamSchema: every accepted parameter with its type,
//      default and valid range,
//   2. write its builder (builders.hpp) and the adapter that calls it,
//   3. register_kind() it — builtin kinds register from
//      register_builtin_kinds(), which the campaign runner and CLI call
//      once at startup.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sttram/common/parallel.hpp"
#include "sttram/io/json.hpp"
#include "sttram/scenario/scenario.hpp"
#include "sttram/scenario/schema.hpp"

namespace sttram::scenario {

/// Runs one scenario instance and returns its flat metrics object.
/// `executor` may be null (serial) — the campaign runner parallelizes
/// across scenarios, so adapters normally run their inner loops
/// serially.
using ExperimentRunner =
    std::function<Json(const ScenarioInstance&, ParallelExecutor*)>;

/// One registered experiment kind.
struct ExperimentKind {
  std::string name;
  std::string description;
  ParamSchema schema;
  ExperimentRunner run;
};

/// Process-wide kind registry.
class Registry {
 public:
  static Registry& instance();

  /// Registers a kind; throws sttram::Error on a duplicate name.
  void register_kind(ExperimentKind kind);

  /// Lookup by name (null when unknown).
  [[nodiscard]] const ExperimentKind* find(const std::string& name) const;

  /// All kinds in registration order.
  [[nodiscard]] const std::vector<ExperimentKind>& kinds() const {
    return kinds_;
  }

 private:
  std::vector<ExperimentKind> kinds_;
};

/// Registers the built-in kinds (yield, tail, traffic, controller,
/// fault_overlay, margin_sweep, march) into Registry::instance().
/// Idempotent.
void register_builtin_kinds();

/// Validates `inst.params` against its kind's schema; throws
/// sttram::Error naming the instance on an unknown kind, an unknown
/// parameter or a value its field does not accept.
void validate_instance(const ScenarioInstance& inst);

}  // namespace sttram::scenario
