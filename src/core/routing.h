#ifndef CEBIS_CORE_ROUTING_H
#define CEBIS_CORE_ROUTING_H

// Request-routing interfaces. A Router maps one interval's per-state
// demand onto clusters, given (possibly stale) prices and the capacity /
// 95-5 limits in force. Routers are called once per 5-minute step (trace
// runs) or per hour (synthetic runs).

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "base/ids.h"
#include "core/cluster.h"
#include "geo/distance_model.h"

namespace cebis::core {

/// One interval's assignment of state demand to clusters.
///
/// Storage is a dense [state][cluster] matrix for O(1) lookups, plus a
/// list of the nonzero (state, cluster) cells in first-touch order. The
/// list is what makes the simulation hot path cheap: an interval
/// typically assigns each state to one or two clusters, so clearing and
/// walking the nonzero entries is ~50x less work than re-filling and
/// re-scanning the whole matrix every 5-minute step.
///
/// The cell accessors a router calls for every placement - add(),
/// cluster_total() and the checked hits() - are inline: a study step
/// makes ~57 of them. They keep their bounds and sign checks, which
/// throw from out-of-line helpers so the inlined bodies stay small.
class Allocation {
 public:
  /// One nonzero cell of the assignment matrix.
  struct Entry {
    std::uint32_t state;
    std::uint32_t cluster;
  };

  Allocation(std::size_t states, std::size_t clusters);

  /// Resets to all-zero; O(nonzero entries), not O(states x clusters).
  void clear();

  void add(std::size_t state, std::size_t cluster, double hits) {
    if (state >= states_ || cluster >= clusters_) {
      out_of_range("Allocation::add");
    }
    if (hits < 0.0) negative_hits();
    if (hits == 0.0) return;
    double& cell = hits_[state * clusters_ + cluster];
    if (cell == 0.0) {
      entries_.push_back(Entry{static_cast<std::uint32_t>(state),
                               static_cast<std::uint32_t>(cluster)});
    }
    cell += hits;
    totals_[cluster] += hits;
  }

  [[nodiscard]] double hits(std::size_t state, std::size_t cluster) const {
    if (state >= states_ || cluster >= clusters_) {
      out_of_range("Allocation::hits");
    }
    return hits_[state * clusters_ + cluster];
  }
  /// Unchecked lookup for entries obtained from nonzero().
  [[nodiscard]] double hits(const Entry& e) const noexcept {
    return hits_[e.state * clusters_ + e.cluster];
  }
  [[nodiscard]] double cluster_total(std::size_t cluster) const {
    if (cluster >= clusters_) out_of_range("Allocation::cluster_total");
    return totals_[cluster];
  }
  [[nodiscard]] std::span<const double> cluster_totals() const noexcept {
    return totals_;
  }
  /// The nonzero cells, in the order the router first touched them.
  [[nodiscard]] std::span<const Entry> nonzero() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t states() const noexcept { return states_; }
  [[nodiscard]] std::size_t clusters() const noexcept { return clusters_; }

 private:
  std::size_t states_;
  std::size_t clusters_;
  std::vector<double> hits_;    // [state][cluster]
  std::vector<double> totals_;  // [cluster]
  std::vector<Entry> entries_;  // nonzero cells of hits_

  [[noreturn]] static void out_of_range(const char* where);
  [[noreturn]] static void negative_hits();
};

/// Read-only inputs for one routing interval.
struct RoutingContext {
  /// Demand per state (subset traffic, hits/s).
  std::span<const double> demand;
  /// Routing price per cluster ($/MWh); stale by the configured delay.
  std::span<const double> price;
  /// Hard serving limit per cluster (hits/s).
  std::span<const double> capacity;
  /// 95/5 reference per cluster; empty when the constraint is relaxed.
  std::span<const double> p95_limit;
  /// Per-cluster burst permission for this interval (parallel to
  /// p95_limit; ignored when p95_limit is empty).
  std::span<const std::uint8_t> can_burst;

  /// Effective load limit for a cluster this interval.
  [[nodiscard]] double limit(std::size_t cluster) const {
    const double cap = capacity[cluster];
    if (p95_limit.empty()) return cap;
    if (!can_burst.empty() && can_burst[cluster] != 0) return cap;
    return std::min(cap, p95_limit[cluster]);
  }
};

/// Element-wise equality of two value series - the routers' shared
/// plan-invalidation check (see PriceAwareRouter / JointObjectiveRouter:
/// a plan is replayed only while its inputs compare equal). NaN never
/// compares equal to itself, so a NaN input safely forces a rebuild.
[[nodiscard]] inline bool spans_equal(std::span<const double> a,
                                      std::span<const double> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

/// One named monotone counter a router exposes for observability (plan
/// rebuilds, ...). Values are cumulative since the
/// router was constructed; names are stable snake_case identifiers.
struct RouterCounter {
  std::string_view name;
  std::int64_t value = 0;
};

class Router {
 public:
  virtual ~Router() = default;

  /// Routes the interval's demand; `out` is cleared first.
  virtual void route(const RoutingContext& ctx, Allocation& out) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The router's observability counters (empty by default). Consumers
  /// - LiveTelemetry, the engine's metric publication - read these
  /// generically instead of downcasting to concrete router types.
  [[nodiscard]] virtual std::vector<RouterCounter> counters() const {
    return {};
  }
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_ROUTING_H
