#ifndef CEBIS_CORE_PRICE_AWARE_ROUTER_H
#define CEBIS_CORE_PRICE_AWARE_ROUTER_H

// The paper's distance-constrained electricity price optimizer (§6.1):
//
//   "Given a client, the price-conscious optimizer maps it to a cluster
//    with the lowest price, only considering clusters within some
//    maximum radial geographic distance. For clients that do not have
//    any clusters within that maximum distance, the routing scheme
//    finds the closest cluster and considers any other nearby clusters
//    (< 50km). If the selected cluster is nearing its capacity (or the
//    95/5 boundary), the optimizer iteratively finds another good
//    cluster."
//
// Two knobs modulate behaviour: the distance threshold (0 degenerates to
// closest-cluster routing; continent-scale gives the pure price
// optimizer) and the price threshold (differentials below $5/MWh are
// ignored).
//
// Hot-path architecture: prices change once per priced hour while trace
// workloads route every 5 minutes, so the price-dependent work is
// captured in an hour-scoped *routing plan* that is rebuilt only when
// the routing prices actually change, and replayed for every sub-hourly
// step in between. The plan is a ranking plus heads: a rebuild ranks
// the clusters by price once and stores each state's *head*, the first
// cluster of its in-threshold order (the cheapest candidate, equal
// prices closer first, or the nearest one when the saving is under the
// price threshold). route() puts a state's whole demand on its head
// whenever the head has room: 79-83% of routed state-steps in
// perfbench's sweep grid (67% in its 95/5 cells), 57% in its service
// session. A state's full order - the ranking filtered down to its
// candidates, equal prices closer first, head in front - is built on
// demand, the first time in a plan that its head is short. Nothing is
// sorted per state, and no rebuild after the first allocates (pinned in
// tests/test_alloc_free.cpp). Everything else is read from the live
// context on every call: the strict per-cluster limits (capacity, or
// the 95/5 reference below it) and burst permission (can_burst, which
// can flip mid-hour as budgets exhaust), so a replayed plan stays exact
// across mid-hour capacity drops and budget exhaustion.

#include <cstdint>
#include <vector>

#include "core/routing.h"
#include "traffic/akamai_allocation.h"

namespace cebis::core {

struct PriceAwareConfig {
  Km distance_threshold{1500.0};
  UsdPerMwh price_threshold{5.0};
  /// Extra radius around the closest cluster when nothing is inside the
  /// distance threshold.
  Km nearby_slack{50.0};
};

class PriceAwareRouter final : public Router {
 public:
  /// `distances` must be a states x clusters model (same cluster order
  /// as the RoutingContext arrays). If `fallback` is provided, demand
  /// that cannot be placed within the candidate set under the interval
  /// limits is routed per the baseline weights instead of spilling to
  /// distant clusters - this models bolting the price optimizer onto the
  /// end of an existing traffic-engineering pipeline (paper §1), and is
  /// what keeps the 95/5-constrained runs from *increasing*
  /// client-server distances beyond the baseline's.
  PriceAwareRouter(const geo::DistanceModel& distances,
                   std::size_t cluster_count, PriceAwareConfig config,
                   const traffic::BaselineAllocation* fallback = nullptr);

  void route(const RoutingContext& ctx, Allocation& out) override;

  [[nodiscard]] std::string_view name() const override { return "price-aware"; }

  [[nodiscard]] const PriceAwareConfig& config() const noexcept { return config_; }

  /// How often route() had to rebuild the plan - re-rank the clusters by
  /// price and re-derive each state's head from that ranking - because
  /// the routing prices changed (once per priced hour on a healthy trace
  /// run; once per step if every interval reprices). Observability for
  /// the plan-replay benchmarks and tests.
  [[nodiscard]] std::int64_t plan_rebuilds() const noexcept {
    return plan_rebuilds_;
  }

  [[nodiscard]] std::vector<RouterCounter> counters() const override {
    return {{"plan_rebuilds", plan_rebuilds_}};
  }

 private:
  PriceAwareConfig config_;
  std::size_t cluster_count_;
  const traffic::BaselineAllocation* fallback_ = nullptr;

  // Per-state cluster ids sorted by distance, and how many of them fall
  // inside the threshold.
  struct StateCandidates {
    std::vector<std::size_t> by_distance;
    std::size_t within_threshold = 0;
  };
  std::vector<StateCandidates> candidates_;
  // Each cluster's position in each state's distance order, at
  // s * cluster_count_ + c: a state's candidates are the clusters whose
  // position is below within_threshold, and it breaks price ties.
  std::vector<std::uint32_t> dist_pos_;

  // --- hour-scoped routing plan ---------------------------------------
  // price_rank_ holds every cluster ordered by plan_price_ (the order
  // within a run of equal prices is arbitrary; rank_has_ties_ says
  // whether there is one). head_[s] is the first cluster of state s's
  // in-threshold order. Each state's orders filter the ranking, in rows
  // of cluster_count_ slots at s * cluster_count_: main_order_ holds
  // the in-threshold candidates, head first; full_order_ holds every
  // cluster (the phase-2 / genuine-peak order). Both are filled lazily
  // per state - a state whose head has room never needs its order, and
  // genuine peaks are rare - and main_epoch_[s] / full_epoch_[s] record
  // the plan epoch a state's row was built for.
  std::vector<double> plan_price_;
  std::vector<std::uint32_t> price_rank_;
  bool rank_has_ties_ = false;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> main_order_;
  std::vector<std::int64_t> main_epoch_;  // per state; -1 = never built
  std::vector<std::uint32_t> full_order_;
  std::vector<std::int64_t> full_epoch_;  // per state; -1 = never built
  bool plan_valid_ = false;
  std::int64_t plan_rebuilds_ = 0;

  // min(capacity, p95) per cluster (capacity alone when 95/5 is
  // relaxed), recomputed at the top of every route() call.
  std::vector<double> strict_limit_;

  // Demand the strictly-limited pass could not place, per state;
  // route()'s scratch, reserved for every state so a call never
  // allocates.
  struct Leftover {
    std::size_t state;
    double amount;
  };
  std::vector<Leftover> leftovers_;

  void rebuild_orders(std::span<const double> price);
  /// Writes `state`'s clusters whose distance position is below `count`
  /// to `out` in plan order: by price, equal prices closer first. `out`
  /// must have room for count + 1 entries when count < cluster_count_.
  void fill_order(std::size_t state, std::size_t count,
                  std::uint32_t* out) const;
  /// The state's in-threshold order for the current plan, built on
  /// demand.
  [[nodiscard]] std::span<const std::uint32_t> main_order_for(
      std::size_t state);
  /// The state's phase-2 order for the current plan, built on demand.
  [[nodiscard]] std::span<const std::uint32_t> full_order_for(std::size_t state);
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_PRICE_AWARE_ROUTER_H
