#ifndef CEBIS_DEMAND_RESPONSE_AGGREGATOR_H
#define CEBIS_DEMAND_RESPONSE_AGGREGATOR_H

// Curtailment-service aggregation (paper §7): "Consumers can also be
// aggregated into large blocs that reduce load in concert. This is the
// approach taken by EnerNOC... Even consumers using as little as 10kW (a
// few racks) can participate."
//
// An Aggregator collects sites (individual co-location deployments, a
// few racks each), packages them into per-region blocks that meet the
// RTO's minimum block size, and splits the availability revenue between
// the sites and the aggregator's commission.

#include <span>
#include <string_view>
#include <vector>

#include "base/units.h"
#include "market/rto.h"

namespace cebis::demand_response {

struct Site {
  std::string_view name;
  market::Rto rto = market::Rto::kPjm;
  double flexible_kw = 10.0;  ///< load it can shed on request
};

struct AggregationTerms {
  double min_block_kw = 100.0;  ///< RTO minimum sellable block
  double commission = 0.20;     ///< aggregator's share of revenue
  Usd availability_per_mw_month{4000.0};
};

struct RegionBlock {
  market::Rto rto = market::Rto::kPjm;
  double total_kw = 0.0;
  std::vector<std::size_t> members;  ///< indices into the site list
  bool sellable = false;             ///< meets min_block_kw
};

struct AggregationReport {
  std::vector<RegionBlock> blocks;
  double sellable_mw = 0.0;
  Usd monthly_availability_revenue;  ///< across sellable blocks
  Usd aggregator_cut;
  Usd sites_cut;
};

class Aggregator {
 public:
  explicit Aggregator(AggregationTerms terms);

  void enroll(Site site);

  [[nodiscard]] std::span<const Site> sites() const noexcept { return sites_; }

  /// Packages the enrolled sites into per-RTO blocks and computes the
  /// standing availability revenue.
  [[nodiscard]] AggregationReport package() const;

 private:
  AggregationTerms terms_;
  std::vector<Site> sites_;
};

}  // namespace cebis::demand_response

#endif  // CEBIS_DEMAND_RESPONSE_AGGREGATOR_H
