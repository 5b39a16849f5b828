// Units for the comparison layer (SavingsReport) and the Workload
// adapters that feed the engine.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/savings.h"
#include "core/workload.h"
#include "test_support.h"
#include "traffic/trace_generator.h"

namespace cebis::core {
namespace {

RunResult make_run(double total, std::vector<double> clusters) {
  RunResult r;
  r.total_cost = Usd{total};
  r.cluster_cost = std::move(clusters);
  r.mean_distance_km = 500.0;
  r.p99_distance_km = 900.0;
  return r;
}

TEST(Savings, BasicComparison) {
  const RunResult base = make_run(100.0, {60.0, 40.0});
  const RunResult opt = make_run(80.0, {30.0, 50.0});
  const SavingsReport r = compare(base, opt);
  EXPECT_DOUBLE_EQ(r.normalized_cost, 0.8);
  EXPECT_DOUBLE_EQ(r.savings_percent, 20.0);
  ASSERT_EQ(r.per_cluster_delta_percent.size(), 2u);
  EXPECT_DOUBLE_EQ(r.per_cluster_delta_percent[0], -30.0);
  EXPECT_DOUBLE_EQ(r.per_cluster_delta_percent[1], 10.0);
}

TEST(Savings, DeltasSumToNegatedSavings) {
  const RunResult base = make_run(200.0, {120.0, 80.0});
  const RunResult opt = make_run(150.0, {90.0, 60.0});
  const SavingsReport r = compare(base, opt);
  double sum = 0.0;
  for (double d : r.per_cluster_delta_percent) sum += d;
  EXPECT_NEAR(sum, -r.savings_percent, test::kTightTol);
}

TEST(Savings, Validation) {
  const RunResult base = make_run(0.0, {0.0});
  const RunResult opt = make_run(10.0, {10.0});
  EXPECT_THROW((void)compare(base, opt), std::invalid_argument);
  const RunResult mismatched = make_run(10.0, {5.0, 5.0});
  const RunResult two = make_run(10.0, {10.0});
  EXPECT_THROW((void)compare(mismatched, two), std::invalid_argument);
}

class WorkloadAdapters : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new traffic::TrafficTrace(
        traffic::TraceGenerator(2020).generate(trace_period()));
    alloc_ = new traffic::BaselineAllocation(2020);
    synth_ = new traffic::SyntheticWorkload(*trace_);
  }
  static void TearDownTestSuite() {
    delete synth_;
    delete alloc_;
    delete trace_;
    synth_ = nullptr;
    alloc_ = nullptr;
    trace_ = nullptr;
  }
  static traffic::TrafficTrace* trace_;
  static traffic::BaselineAllocation* alloc_;
  static traffic::SyntheticWorkload* synth_;
};

traffic::TrafficTrace* WorkloadAdapters::trace_ = nullptr;
traffic::BaselineAllocation* WorkloadAdapters::alloc_ = nullptr;
traffic::SyntheticWorkload* WorkloadAdapters::synth_ = nullptr;

TEST_F(WorkloadAdapters, TraceWorkloadAppliesSubsetFractions) {
  const TraceWorkload w(*trace_, *alloc_);
  EXPECT_EQ(w.steps(), trace_->steps());
  EXPECT_EQ(w.steps_per_hour(), 12);
  std::vector<double> demand(w.state_count());
  w.demand(100, demand);
  for (std::size_t s = 0; s < demand.size(); ++s) {
    const StateId state{static_cast<std::int32_t>(s)};
    const double expected = trace_->hits(100, state).value() *
                            alloc_->subset_fraction(state);
    EXPECT_NEAR(demand[s], expected, test::kNumericTol);
  }
}

TEST_F(WorkloadAdapters, SyntheticWorkloadIsHourly) {
  const Period window{trace_period().begin, trace_period().begin + 48};
  const SyntheticWorkload39 w(*synth_, *alloc_, window);
  EXPECT_EQ(w.steps_per_hour(), 1);
  EXPECT_EQ(w.steps(), 48);
  std::vector<double> demand(w.state_count());
  w.demand(0, demand);
  double total = 0.0;
  for (double d : demand) total += d;
  EXPECT_GT(total, 0.0);
  EXPECT_THROW(w.demand(48, demand), std::out_of_range);
}

TEST_F(WorkloadAdapters, SyntheticWorkloadWeeklyPeriodic) {
  const Period window{trace_period().begin, trace_period().begin + 15 * 24};
  const SyntheticWorkload39 w(*synth_, *alloc_, window);
  std::vector<double> a(w.state_count());
  std::vector<double> b(w.state_count());
  w.demand(10, a);
  w.demand(10 + 7 * 24, b);  // one week later
  for (std::size_t s = 0; s < a.size(); ++s) {
    EXPECT_DOUBLE_EQ(a[s], b[s]);
  }
}

TEST_F(WorkloadAdapters, SyntheticRowIsEachStatesDemandTimesItsSubsetFraction) {
  // Fifteen days from 36 hours before the 2006 epoch, so the first hours
  // take their hour-of-week cell from a floored weekday.
  const Period window{-36, -36 + 15 * 24};
  const SyntheticWorkload39 w(*synth_, *alloc_, window);
  std::vector<double> row(w.state_count());
  std::vector<double> week_later(w.state_count());
  for (std::int64_t step = 0; step < w.steps(); ++step) {
    w.demand(step, row);
    const HourIndex hour = window.begin + step;
    for (std::size_t s = 0; s < row.size(); ++s) {
      const StateId state{static_cast<std::int32_t>(s)};
      const double expected =
          synth_->demand(state, hour).value() * alloc_->subset_fraction(state);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[s]),
                std::bit_cast<std::uint64_t>(expected))
          << "hour " << hour << ", state " << s;
    }
    if (step + 7 * 24 < w.steps()) {
      w.demand(step + 7 * 24, week_later);
      ASSERT_EQ(row, week_later) << "hour " << hour;
    }
  }
}

TEST_F(WorkloadAdapters, DemandBufferSizeValidated) {
  const TraceWorkload w(*trace_, *alloc_);
  std::vector<double> tiny(3);
  EXPECT_THROW(w.demand(0, tiny), std::invalid_argument);
  const Period bad{10, 10};
  EXPECT_THROW(SyntheticWorkload39(*synth_, *alloc_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace cebis::core
