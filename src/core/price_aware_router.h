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
// step in between. The plan is a price ranking plus, per state, its
// candidates as *rank bits* (bit r: the r-th cheapest cluster) and its
// *head*. The constructor keeps each state's candidates as a cluster
// bitmask, so a plan holds at most 64 clusters; a rebuild ranks the
// clusters once and translates every mask to rank bits through tables
// of four cluster bits. A state's plan order is its rank bits lowest
// first, equal prices closer first; its head is the first of them, or
// the nearest candidate when the saving is under the price threshold.
// route() puts a state's whole demand on its head whenever the head has
// room: 79-83% of routed state-steps in perfbench's sweep grid (67% in
// its 95/5 cells), 57% in its service session. The other passes that
// follow price - the greedy fill behind a short head, the in-threshold
// burst pass and the phase-2 burst pass over every cluster - are one
// walk over a rank mask in plan order, head first where there is one.
// A cluster whose room reads <= 0 leaves the walks under that limit for
// the rest of the call: loads only grow within a call, so its room
// stays <= 0 and skipping it changes no placement. Nothing is sorted or
// stored per state beyond its bits and head, and no rebuild after the
// first allocates (pinned in tests/test_alloc_free.cpp). The strict
// per-cluster limits (capacity, or the 95/5 reference below it) and
// burst permission (can_burst, which can flip mid-hour as budgets
// exhaust) are read from the live context on every call, so a replayed
// plan stays exact across mid-hour capacity drops and budget
// exhaustion.

#include <bit>
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
  /// client-server distances beyond the baseline's. A plan's bitmasks
  /// hold at most 64 clusters.
  PriceAwareRouter(const geo::DistanceModel& distances,
                   std::size_t cluster_count, PriceAwareConfig config,
                   const traffic::BaselineAllocation* fallback = nullptr);

  void route(const RoutingContext& ctx, Allocation& out) override;

  [[nodiscard]] std::string_view name() const override { return "price-aware"; }

  [[nodiscard]] const PriceAwareConfig& config() const noexcept { return config_; }

  /// How often route() had to rebuild the plan - re-rank the clusters by
  /// price and re-derive each state's rank bits and head - because the
  /// routing prices changed (once per priced hour on a healthy trace
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

  // Per state, in rows at s * cluster_count_: the clusters nearest
  // first, and each cluster's position in that order (it breaks price
  // ties, closer first). candidate_bits_[s] holds the state's
  // candidates, its first popcount() clusters by distance, as cluster
  // bits.
  std::vector<std::uint32_t> by_distance_;
  std::vector<std::uint32_t> dist_pos_;
  std::vector<std::uint64_t> candidate_bits_;

  // --- hour-scoped routing plan ---------------------------------------
  // price_rank_[r] is the r-th cheapest cluster under plan_price_ and
  // rank_of_ its inverse (the order within a run of equal prices is
  // arbitrary; rank_has_ties_ says whether there is one, and then
  // tie_run_[r] holds the rank bits priced equal to rank r). Per state,
  // rank_bits_ holds its candidates as rank bits and head_ its head.
  // nibble_ranks_ is the rebuild's translation table.
  std::vector<double> plan_price_;
  std::vector<std::uint32_t> price_rank_;
  std::vector<std::uint32_t> rank_of_;
  bool rank_has_ties_ = false;
  std::vector<std::uint64_t> tie_run_;
  std::vector<std::uint64_t> rank_bits_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint64_t> nibble_ranks_;
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

  /// Throws std::invalid_argument naming the first non-finite price,
  /// before changing any plan state.
  void rebuild_plan(std::span<const double> price);
  /// The rank bit of `mask`'s first cluster in `state`'s plan order: its
  /// lowest set bit or, among the set bits priced equal to that one, the
  /// closest. `mask` must not be 0.
  [[nodiscard]] std::uint64_t first_in_plan(std::size_t state,
                                            std::uint64_t mask) const {
    const std::uint64_t lowest = mask & (~mask + 1);
    if (!rank_has_ties_) return lowest;
    const std::uint64_t tied = mask & tie_run_[std::countr_zero(lowest)];
    return tied == lowest ? lowest : closest_of(state, tied);
  }
  /// The rank bit of the cluster in `tied` closest to `state`.
  [[nodiscard]] std::uint64_t closest_of(std::size_t state,
                                         std::uint64_t tied) const;
  /// Places `remaining` of `state`'s demand on `head` (one rank bit, or
  /// 0), then on `mask` in plan order, each cluster up to `limit[c]` less
  /// its load; returns what is left. A cluster whose room reads <= 0
  /// joins `full`, which every later walk of the call skips.
  [[nodiscard]] double walk(std::size_t state, std::uint64_t head,
                            std::uint64_t mask, const double* limit,
                            std::uint64_t& full, double remaining,
                            Allocation& out) const;
};

}  // namespace cebis::core

#endif  // CEBIS_CORE_PRICE_AWARE_ROUTER_H
