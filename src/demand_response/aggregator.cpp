#include "demand_response/aggregator.h"

#include <stdexcept>

namespace cebis::demand_response {

Aggregator::Aggregator(AggregationTerms terms) : terms_(terms) {
  if (terms_.commission < 0.0 || terms_.commission >= 1.0) {
    throw std::invalid_argument("Aggregator: commission outside [0,1)");
  }
  if (terms_.min_block_kw <= 0.0) {
    throw std::invalid_argument("Aggregator: min_block_kw <= 0");
  }
}

void Aggregator::enroll(Site site) {
  if (site.flexible_kw <= 0.0) {
    throw std::invalid_argument("Aggregator::enroll: non-positive flexibility");
  }
  sites_.push_back(site);
}

AggregationReport Aggregator::package() const {
  AggregationReport report;
  for (int r = 0; r < market::kRtoCount; ++r) {
    RegionBlock block;
    block.rto = static_cast<market::Rto>(r);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (sites_[i].rto == block.rto) {
        block.members.push_back(i);
        block.total_kw += sites_[i].flexible_kw;
      }
    }
    if (block.members.empty()) continue;
    block.sellable = block.total_kw >= terms_.min_block_kw;
    if (block.sellable) report.sellable_mw += block.total_kw / 1000.0;
    report.blocks.push_back(std::move(block));
  }
  report.monthly_availability_revenue =
      Usd{report.sellable_mw * terms_.availability_per_mw_month.value()};
  report.aggregator_cut =
      Usd{report.monthly_availability_revenue.value() * terms_.commission};
  report.sites_cut =
      report.monthly_availability_revenue - report.aggregator_cut;
  return report;
}

}  // namespace cebis::demand_response
