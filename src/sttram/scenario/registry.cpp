#include "sttram/scenario/registry.hpp"

#include "sttram/common/error.hpp"

namespace sttram::scenario {

Registry& Registry::instance() {
  // Leaked like the obs singletons: never destroyed, so no lookup can
  // outlive it, whatever the order of static destruction.
  static Registry* registry = new Registry();
  return *registry;
}

void Registry::register_kind(ExperimentKind kind) {
  require(!kind.name.empty(), "registry: experiment kind wants a name");
  require(find(kind.name) == nullptr,
          "registry: duplicate experiment kind '" + kind.name + "'");
  require(static_cast<bool>(kind.run),
          "registry: experiment kind '" + kind.name + "' wants a runner");
  kinds_.push_back(std::move(kind));
}

const ExperimentKind* Registry::find(const std::string& name) const {
  for (const ExperimentKind& k : kinds_) {
    if (k.name == name) return &k;
  }
  return nullptr;
}

void validate_instance(const ScenarioInstance& inst) {
  const ExperimentKind* kind = Registry::instance().find(inst.kind);
  if (kind == nullptr) {
    std::string known;
    for (const ExperimentKind& k : Registry::instance().kinds()) {
      known += (known.empty() ? "" : ", ") + k.name;
    }
    throw InvalidArgument("scenario '" + inst.name +
                          "': unknown experiment kind '" + inst.kind +
                          "' (registered: " + known + ")");
  }
  kind->schema.validate(inst.params, "scenario '" + inst.name + "'");
}

}  // namespace sttram::scenario
