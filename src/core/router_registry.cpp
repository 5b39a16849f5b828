#include "core/router_registry.h"

#include <stdexcept>
#include <utility>

#include "core/baseline_routers.h"
#include "core/experiment.h"
#include "core/joint_router.h"
#include "core/price_aware_router.h"

namespace cebis::core {

namespace {

void expect_no_config(const ScenarioSpec& spec, std::string_view router) {
  if (!std::holds_alternative<std::monostate>(spec.config)) {
    throw std::invalid_argument(std::string(router) +
                                ": router takes no config (use monostate)");
  }
}

template <typename Config>
Config config_or_default(const ScenarioSpec& spec, std::string_view router) {
  if (std::holds_alternative<std::monostate>(spec.config)) return Config{};
  if (const auto* cfg = std::get_if<Config>(&spec.config)) return *cfg;
  throw std::invalid_argument(std::string(router) +
                              ": spec.config holds the wrong alternative");
}

}  // namespace

RouterRegistry& RouterRegistry::instance() {
  static RouterRegistry* registry = [] {
    auto* r = new RouterRegistry();
    register_builtin_routers(*r);
    return r;
  }();
  return *registry;
}

void RouterRegistry::add(std::string name, RouterEntry entry) {
  if (name.empty()) throw std::invalid_argument("RouterRegistry: empty name");
  if (!entry.make) {
    throw std::invalid_argument("RouterRegistry: '" + name + "' has no factory");
  }
  const auto [it, inserted] = entries_.emplace(std::move(name), std::move(entry));
  if (!inserted) {
    throw std::invalid_argument("RouterRegistry: '" + it->first +
                                "' already registered");
  }
}

bool RouterRegistry::contains(std::string_view name) const noexcept {
  return entries_.find(name) != entries_.end();
}

const RouterEntry& RouterRegistry::at(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    throw std::invalid_argument("RouterRegistry: unknown router '" +
                                std::string(name) + "'");
  }
  return it->second;
}

void register_builtin_routers(RouterRegistry& registry) {
  registry.add("baseline",
               RouterEntry{
                   .make =
                       [](const Fixture& f, const ScenarioSpec& spec)
                       -> std::unique_ptr<Router> {
                     expect_no_config(spec, "baseline");
                     return std::make_unique<AkamaiLikeRouter>(f.allocation);
                   },
                   .forces_relaxed_p95 = true,
                   .clusters = nullptr,
               });

  registry.add("price-aware",
               RouterEntry{
                   .make =
                       [](const Fixture& f, const ScenarioSpec& spec)
                       -> std::unique_ptr<Router> {
                     const auto cfg = config_or_default<PriceAwareConfig>(
                         spec, "price-aware");
                     // Constrained runs fall back to the baseline
                     // pipeline when candidate clusters are exhausted
                     // (see PriceAwareRouter docs).
                     const traffic::BaselineAllocation* fallback =
                         spec.enforce_p95 ? &f.allocation : nullptr;
                     return std::make_unique<PriceAwareRouter>(
                         f.distances, f.clusters.size(), cfg, fallback);
                   },
                   .forces_relaxed_p95 = false,
                   .clusters = nullptr,
               });

  registry.add("closest",
               RouterEntry{
                   .make =
                       [](const Fixture& f, const ScenarioSpec& spec)
                       -> std::unique_ptr<Router> {
                     expect_no_config(spec, "closest");
                     return std::make_unique<ClosestRouter>(f.distances,
                                                            f.clusters.size());
                   },
                   .forces_relaxed_p95 = false,
                   .clusters = nullptr,
               });

  registry.add(
      "static-cheapest",
      RouterEntry{
          .make =
              [](const Fixture& f, const ScenarioSpec& spec)
              -> std::unique_ptr<Router> {
            expect_no_config(spec, "static-cheapest");
            return std::make_unique<StaticCheapestRouter>(f.cheapest_cluster());
          },
          // Servers are relocated; the 95/5 baselines are moot.
          .forces_relaxed_p95 = true,
          .clusters =
              [](const Fixture& f, const ScenarioSpec&) {
                return consolidate_clusters(f.clusters, f.cheapest_cluster());
              },
      });

  registry.add("joint-objective",
               RouterEntry{
                   .make =
                       [](const Fixture& f, const ScenarioSpec& spec)
                       -> std::unique_ptr<Router> {
                     const auto cfg = config_or_default<JointObjectiveConfig>(
                         spec, "joint-objective");
                     return std::make_unique<JointObjectiveRouter>(
                         f.distances, f.clusters.size(), cfg);
                   },
                   .forces_relaxed_p95 = false,
                   .clusters = nullptr,
               });
}

}  // namespace cebis::core
