#ifndef CEBIS_CORE_ROUTER_REGISTRY_H
#define CEBIS_CORE_ROUTER_REGISTRY_H

// Name -> factory registry for routing schemes. Every router the
// experiment layer can run - the paper's four comparison schemes plus
// the §8 joint objective, and any extension - is constructed
// declaratively from a ScenarioSpec, so new routers plug in without
// touching the scenario runner.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/routing.h"
#include "core/scenario.h"

namespace cebis::core {

struct Fixture;

/// How a registered router participates in scenario runs.
struct RouterEntry {
  /// Builds the router for one scenario. Must throw std::invalid_argument
  /// when spec.config holds a non-matching alternative.
  std::function<std::unique_ptr<Router>(const Fixture&, const ScenarioSpec&)> make;

  /// True for routers that define their own baseline and ignore limits
  /// (baseline replay, static relocation): the engine then runs with the
  /// 95/5 constraint off regardless of spec.enforce_p95.
  bool forces_relaxed_p95 = false;

  /// Optional cluster-set override - e.g. static-cheapest consolidates
  /// every server into the target hub. Null = the fixture's clusters.
  std::function<std::vector<Cluster>(const Fixture&, const ScenarioSpec&)> clusters;
};

class RouterRegistry {
 public:
  /// Creates an empty registry (for tests); the process-wide instance()
  /// comes pre-loaded with the five built-ins.
  RouterRegistry() = default;

  /// The process-wide registry: "baseline", "price-aware", "closest",
  /// "static-cheapest", "joint-objective", plus anything added later.
  [[nodiscard]] static RouterRegistry& instance();

  /// Registers a router. Throws std::invalid_argument on an empty name,
  /// a missing factory, or a duplicate registration.
  void add(std::string name, RouterEntry entry);

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Throws std::invalid_argument (with the name) when not registered.
  [[nodiscard]] const RouterEntry& at(std::string_view name) const;

 private:
  std::map<std::string, RouterEntry, std::less<>> entries_;
};

/// Registers the five built-in routers into `registry` (what instance()
/// does on first use).
void register_builtin_routers(RouterRegistry& registry);

}  // namespace cebis::core

#endif  // CEBIS_CORE_ROUTER_REGISTRY_H
