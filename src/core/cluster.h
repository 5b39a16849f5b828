#ifndef CEBIS_CORE_CLUSTER_H
#define CEBIS_CORE_CLUSTER_H

// Server clusters as the routing/billing unit: the eighteen usable
// Akamai cities grouped into nine market-hub clusters (paper §6.1), each
// with a server count, a capacity, and a 95/5 billing reference derived
// from the baseline workload.

#include <string_view>
#include <vector>

#include "base/ids.h"
#include "base/units.h"
#include "geo/latlon.h"
#include "traffic/akamai_allocation.h"
#include "traffic/workload_stats.h"

namespace cebis::core {

struct Cluster {
  ClusterId id;
  HubId hub;
  std::string_view label;  ///< Fig 19 label: CA1, CA2, MA, ...
  geo::LatLon location;    ///< hub location (distance anchor)
  int servers = 0;
  HitsPerSec capacity;       ///< hard serving limit
  HitsPerSec p95_reference;  ///< baseline 95th percentile (95/5 cap)
};

/// Builds the nine clusters from baseline loads (capacity = observed
/// peak x headroom; servers = capacity / per-server rate).
[[nodiscard]] std::vector<Cluster> build_clusters(
    const traffic::ClusterLoads& baseline_loads,
    const traffic::ProfileConfig& config = {});

/// All servers relocated into `target` (the paper's static "move all
/// servers to the cheapest market" comparison, §6.3): target gets the
/// fleet-wide server count and capacity, other clusters zero.
[[nodiscard]] std::vector<Cluster> consolidate_clusters(
    const std::vector<Cluster>& clusters, std::size_t target);

}  // namespace cebis::core

#endif  // CEBIS_CORE_CLUSTER_H
