// Demand-response extension (§7): event derivation, participation
// settlement, negawatt bids, and EnerNOC-style aggregation.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "demand_response/aggregator.h"
#include "demand_response/dr_policy.h"
#include "demand_response/negawatt_market.h"
#include "stats/percentile.h"
#include "test_support.h"

namespace cebis::demand_response {
namespace {

class DrTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new core::Fixture(core::Fixture::make(2009));
  }
  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }
  static core::Fixture* fixture_;

  static std::vector<HubId> cluster_hubs() {
    std::vector<HubId> hubs;
    for (const auto& c : fixture_->clusters) hubs.push_back(c.hub);
    return hubs;
  }

  static core::ScenarioSpec scenario() {
    return core::ScenarioSpec{
        .energy = energy::google_params(),
        .workload = core::WorkloadKind::kTrace24Day,
        .enforce_p95 = false,
    };
  }
};

core::Fixture* DrTest::fixture_ = nullptr;

TEST_F(DrTest, EventsTrackPriceSpikes) {
  const auto hubs = cluster_hubs();
  const auto events =
      generate_events(fixture_->prices(), hubs, trace_period());
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    EXPECT_LT(e.cluster, fixture_->clusters.size());
    EXPECT_GE(e.start, trace_period().begin);
    EXPECT_LT(e.start, trace_period().end);
    EXPECT_GE(e.duration_hours, 1);
    EXPECT_LE(e.duration_hours, 4);
    // The triggering hour really is expensive relative to the window:
    // above the hub's 95th percentile over the trace window.
    const auto& series = fixture_->prices().rt[fixture_->clusters[e.cluster].hub.index()];
    const double p95 = stats::percentile(series.slice(trace_period()), 95.0);
    const double p =
        fixture_->prices().rt_at(fixture_->clusters[e.cluster].hub, e.start).value();
    EXPECT_GT(p, p95);
  }
}

TEST_F(DrTest, CooldownSpacesEvents) {
  const auto hubs = cluster_hubs();
  EventGeneratorParams params;
  params.cooldown_hours = 24;
  const auto events = generate_events(fixture_->prices(), hubs, trace_period(), params);
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[i].cluster != events[j].cluster) continue;
      const auto gap = std::abs(events[i].start - events[j].start);
      EXPECT_GE(gap, 24);
    }
  }
}

TEST_F(DrTest, EventGeneratorValidation) {
  const auto hubs = cluster_hubs();
  EventGeneratorParams bad;
  bad.trigger_percentile = 100.0;
  EXPECT_THROW(
      (void)generate_events(fixture_->prices(), hubs, trace_period(), bad),
      std::invalid_argument);
  bad = EventGeneratorParams{};
  bad.max_duration_hours = 0;
  EXPECT_THROW(
      (void)generate_events(fixture_->prices(), hubs, trace_period(), bad),
      std::invalid_argument);
}

TEST_F(DrTest, ParticipationDeliversReductionsAndRevenue) {
  const auto hubs = cluster_hubs();
  const auto events = generate_events(fixture_->prices(), hubs, trace_period());
  const DrSettlement s =
      simulate_participation(*fixture_, scenario(), events);
  EXPECT_EQ(s.events, static_cast<int>(events.size()));
  EXPECT_GT(s.enrolled_mw, 0.0);
  EXPECT_GT(s.delivered_mwh, 0.0);
  EXPECT_GT(s.energy_payments.value(), 0.0);
  EXPECT_GT(s.availability_payments.value(), 0.0);
  // Shedding during price spikes should not make the bill worse:
  // rerouting away from spiking hubs is itself profitable.
  EXPECT_LT(s.reroute_cost_delta.value(), s.energy_payments.value());
  EXPECT_GT(s.net_revenue.value(), 0.0);
}

TEST_F(DrTest, ShedFactorValidation) {
  DrPolicyConfig bad;
  bad.shed_capacity_factor = 1.5;
  EXPECT_THROW(
      (void)simulate_participation(*fixture_, scenario(), {}, bad),
      std::invalid_argument);
}

TEST_F(DrTest, NegawattBidsTargetExpensiveHours) {
  NegawattStrategy strategy;
  strategy.strike = UsdPerMwh{90.0};
  const auto bids = plan_bids(*fixture_, scenario(), strategy);
  ASSERT_FALSE(bids.empty());
  for (const auto& b : bids) {
    EXPECT_GE(b.da_price, strategy.strike.value());
    EXPECT_GT(b.mw, 0.0);
    EXPECT_LT(b.cluster, fixture_->clusters.size());
  }
}

TEST_F(DrTest, NegawattSettlementBalances) {
  NegawattStrategy strategy;
  strategy.strike = UsdPerMwh{110.0};
  strategy.offer_fraction = 0.4;
  const auto bids = plan_bids(*fixture_, scenario(), strategy);
  const NegawattSettlement s = settle_bids(*fixture_, scenario(), bids);
  EXPECT_EQ(s.bids, static_cast<int>(bids.size()));
  EXPECT_NEAR(s.offered_mwh, s.delivered_mwh + s.shortfall_mwh, test::kSumTol);
  EXPECT_GE(s.da_revenue.value(), 0.0);
  if (!bids.empty()) {
    EXPECT_GT(s.delivered_mwh, 0.0);
  }
}

TEST(Aggregator, PackagesSitesIntoRegionBlocks) {
  AggregationTerms terms;
  terms.min_block_kw = 100.0;
  Aggregator agg(terms);
  // A few racks each - exactly the paper's "as little as 10kW" story.
  for (int i = 0; i < 12; ++i) {
    agg.enroll(Site{"pjm-site", market::Rto::kPjm, 15.0});
  }
  agg.enroll(Site{"lonely-ercot", market::Rto::kErcot, 20.0});
  const AggregationReport report = agg.package();

  bool pjm_sellable = false;
  bool ercot_sellable = true;
  for (const auto& b : report.blocks) {
    if (b.rto == market::Rto::kPjm) {
      pjm_sellable = b.sellable;
      EXPECT_EQ(b.members.size(), 12u);
      EXPECT_DOUBLE_EQ(b.total_kw, 180.0);
    }
    if (b.rto == market::Rto::kErcot) ercot_sellable = b.sellable;
  }
  EXPECT_TRUE(pjm_sellable);    // aggregation crosses the threshold
  EXPECT_FALSE(ercot_sellable); // a single small site cannot
  EXPECT_NEAR(report.sellable_mw, 0.18, test::kNumericTol);
  EXPECT_NEAR(report.monthly_availability_revenue.value(), 720.0, test::kSumTol);
  EXPECT_NEAR(report.aggregator_cut.value(), 144.0, test::kSumTol);
  EXPECT_NEAR(report.sites_cut.value(), 576.0, test::kSumTol);
}

TEST(Aggregator, Validation) {
  Aggregator agg(AggregationTerms{});
  EXPECT_THROW(agg.enroll(Site{"zero", market::Rto::kPjm, 0.0}),
               std::invalid_argument);
  AggregationTerms bad;
  bad.commission = 1.0;
  EXPECT_THROW(Aggregator{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace cebis::demand_response
