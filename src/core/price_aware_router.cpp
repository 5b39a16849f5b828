#include "core/price_aware_router.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

namespace cebis::core {

PriceAwareRouter::PriceAwareRouter(const geo::DistanceModel& distances,
                                   std::size_t cluster_count,
                                   PriceAwareConfig config,
                                   const traffic::BaselineAllocation* fallback)
    : config_(config), cluster_count_(cluster_count), fallback_(fallback) {
  if (cluster_count_ == 0 || cluster_count_ > distances.site_count()) {
    throw std::invalid_argument("PriceAwareRouter: bad cluster count");
  }
  if (cluster_count_ > 64) {
    throw std::invalid_argument(
        "PriceAwareRouter: a plan holds at most 64 clusters");
  }
  if (config_.distance_threshold.value() < 0.0) {
    throw std::invalid_argument("PriceAwareRouter: negative distance threshold");
  }

  const std::size_t states = distances.state_count();
  by_distance_.resize(states * cluster_count_);
  dist_pos_.resize(states * cluster_count_);
  candidate_bits_.resize(states);
  std::vector<double> distance_km(cluster_count_);
  for (std::size_t s = 0; s < states; ++s) {
    const StateId state{static_cast<std::int32_t>(s)};
    std::uint32_t* const order = by_distance_.data() + s * cluster_count_;
    std::iota(order, order + cluster_count_, std::uint32_t{0});
    std::sort(order, order + cluster_count_,
              [&](std::uint32_t a, std::uint32_t b) {
                return distances.distance(state, a) < distances.distance(state, b);
              });
    for (std::size_t i = 0; i < cluster_count_; ++i) {
      distance_km[i] = distances.distance(state, order[i]).value();
      dist_pos_[s * cluster_count_ + order[i]] = static_cast<std::uint32_t>(i);
    }
    // Candidate set: clusters within the threshold; if none, the closest
    // cluster plus anything within nearby_slack of it.
    std::size_t within = 0;
    while (within < cluster_count_ &&
           distance_km[within] <= config_.distance_threshold.value()) {
      ++within;
    }
    if (within == 0) {
      const double anchor = distance_km[0];
      within = 1;
      while (within < cluster_count_ &&
             distance_km[within] <= anchor + config_.nearby_slack.value()) {
        ++within;
      }
    }
    for (std::size_t i = 0; i < within; ++i) {
      candidate_bits_[s] |= std::uint64_t{1} << order[i];
    }
  }

  price_rank_.resize(cluster_count_);
  rank_of_.resize(cluster_count_);
  tie_run_.resize(cluster_count_);
  rank_bits_.resize(states);
  head_.resize(states);
  nibble_ranks_.resize(16 * ((cluster_count_ + 3) / 4));
  strict_limit_.resize(cluster_count_);
  leftovers_.reserve(states);
}

void PriceAwareRouter::rebuild_plan(std::span<const double> price) {
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    if (!std::isfinite(price[c])) {
      throw std::invalid_argument(
          "PriceAwareRouter: routing price of cluster " + std::to_string(c) +
          " is " + std::to_string(price[c]) + " $/MWh, not a finite number");
    }
  }
  plan_price_.assign(price.begin(), price.end());
  ++plan_rebuilds_;

  // Rank the clusters by counting: a cluster's rank is how many are
  // cheaper, plus how many equal ones have a lower index. Finite prices
  // make this a permutation.
  bool ties = false;
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    const double p = plan_price_[c];
    std::uint32_t rank = 0;
    for (std::size_t d = 0; d < c; ++d) {
      rank += static_cast<std::uint32_t>(plan_price_[d] <= p);
      ties |= plan_price_[d] == p;
    }
    for (std::size_t d = c + 1; d < cluster_count_; ++d) {
      rank += static_cast<std::uint32_t>(plan_price_[d] < p);
    }
    rank_of_[c] = rank;
    price_rank_[rank] = static_cast<std::uint32_t>(c);
  }
  rank_has_ties_ = ties;
  // Equal prices sit in runs of consecutive ranks; give every rank its
  // run's rank bits.
  for (std::size_t r = 0; ties && r < cluster_count_;) {
    std::size_t end = r + 1;
    while (end < cluster_count_ &&
           plan_price_[price_rank_[end]] == plan_price_[price_rank_[r]]) {
      ++end;
    }
    const std::uint64_t run = (~std::uint64_t{0} >> (64 - (end - r))) << r;
    for (; r < end; ++r) tie_run_[r] = run;
  }

  // Each state's candidates as rank bits, translated four cluster bits
  // at a time: nibble_ranks_[16 * k + v] holds the rank bits of the
  // clusters 4k + i for the set bits i of v.
  // A nibble's table doubles one cluster at a time: entries [n, 2n)
  // are entries [0, n) plus the next cluster's rank bit.
  const std::size_t nibbles = (cluster_count_ + 3) / 4;
  std::uint64_t* const table = nibble_ranks_.data();
  for (std::size_t k = 0; k < nibbles; ++k) {
    std::uint64_t* const row = table + 16 * k;
    row[0] = 0;
    for (std::size_t i = 0, n = 1; i < 4; ++i, n *= 2) {
      const std::size_t c = 4 * k + i;
      const std::uint64_t bit =
          c < cluster_count_ ? std::uint64_t{1} << rank_of_[c] : 0;
      for (std::size_t v = 0; v < n; ++v) row[n + v] = row[v] | bit;
    }
  }
  // One pass over the states per nibble: long loops of independent
  // lookups, where a nibble loop per state would be three iterations.
  const std::size_t states = candidate_bits_.size();
  const std::uint64_t* const clusters = candidate_bits_.data();
  std::uint64_t* const ranks = rank_bits_.data();
  for (std::size_t s = 0; s < states; ++s) ranks[s] = table[clusters[s] & 15U];
  for (std::size_t k = 1; k < nibbles; ++k) {
    const std::uint64_t* const row = table + 16 * k;
    for (std::size_t s = 0; s < states; ++s) {
      ranks[s] |= row[(clusters[s] >> (4 * k)) & 15U];
    }
  }

  for (std::size_t s = 0; s < states; ++s) {
    const std::uint32_t cheapest =
        price_rank_[std::countr_zero(first_in_plan(s, ranks[s]))];
    // Price threshold: if the cheapest candidate saves less than tau
    // against the *nearest* candidate, prefer the nearest (distance is
    // the default objective; tiny differentials are ignored). A mask
    // picks the head: the outcome varies from state to state, and a
    // branch on it mispredicts.
    const std::uint32_t nearest = by_distance_[s * cluster_count_];
    const double saving = plan_price_[nearest] - plan_price_[cheapest];
    const bool prefer_nearest = saving < config_.price_threshold.value();
    const std::uint32_t mask = 0U - static_cast<std::uint32_t>(prefer_nearest);
    head_[s] = cheapest ^ ((cheapest ^ nearest) & mask);
  }
  plan_valid_ = true;
}

std::uint64_t PriceAwareRouter::closest_of(std::size_t state,
                                           std::uint64_t tied) const {
  const std::uint32_t* const pos = dist_pos_.data() + state * cluster_count_;
  std::uint64_t best = 0;
  std::uint32_t best_pos = std::numeric_limits<std::uint32_t>::max();
  for (; tied != 0; tied &= tied - 1) {
    const std::uint32_t p = pos[price_rank_[std::countr_zero(tied)]];
    if (p < best_pos) {
      best = tied & (~tied + 1);
      best_pos = p;
    }
  }
  return best;
}

double PriceAwareRouter::walk(std::size_t state, std::uint64_t head,
                              std::uint64_t mask, const double* limit,
                              std::uint64_t& full, double remaining,
                              Allocation& out) const {
  head &= ~full;
  mask &= ~(head | full);
  while (remaining > 0.0 && (head | mask) != 0) {
    const std::uint64_t bit = head != 0 ? head : first_in_plan(state, mask);
    head = 0;
    mask &= ~bit;
    const std::uint32_t c = price_rank_[std::countr_zero(bit)];
    const double room = limit[c] - out.cluster_total(c);
    if (room <= 0.0) {
      full |= bit;
      continue;
    }
    const double take = std::min(remaining, room);
    out.add(state, c, take);
    remaining -= take;
  }
  return remaining;
}

void PriceAwareRouter::route(const RoutingContext& ctx, Allocation& out) {
  if (ctx.demand.size() != candidate_bits_.size() ||
      ctx.price.size() != cluster_count_ || ctx.capacity.size() != cluster_count_) {
    throw std::invalid_argument("PriceAwareRouter::route: context size mismatch");
  }

  // Rebuild the plan only when prices moved. The limits (capacity
  // factors and 95/5 references can move mid-hour) and can_burst (it
  // flips as budgets exhaust) are read live every call.
  if (!plan_valid_ || !spans_equal(ctx.price, plan_price_)) {
    rebuild_plan(ctx.price);
  }
  const bool with_p95 = !ctx.p95_limit.empty() && !ctx.can_burst.empty();
  std::uint64_t burstable = 0;  // rank bits
  for (std::size_t c = 0; c < cluster_count_; ++c) {
    strict_limit_[c] = ctx.p95_limit.empty()
                           ? ctx.capacity[c]
                           : std::min(ctx.capacity[c], ctx.p95_limit[c]);
    if (with_p95 && ctx.can_burst[c] != 0) {
      burstable |= std::uint64_t{1} << rank_of_[c];
    }
  }
  // Rank bits of the clusters whose room under the strict limit, or
  // under raw capacity, has read <= 0 in this call.
  std::uint64_t strict_full = 0;
  std::uint64_t capacity_full = 0;

  out.clear();

  // The 95/5 reference acts as a hard cap during the main pass; bursts
  // (phase 2) are granted only to demand the strictly-limited system
  // cannot hold. This is what keeps the realized per-cluster 95th
  // percentiles at or below their baseline references: clusters exceed
  // the reference in at most the ~5% of intervals where total demand
  // genuinely requires it, never because cheap power attracted traffic.
  leftovers_.clear();

  for (std::size_t s = 0; s < candidate_bits_.size(); ++s) {
    double remaining = ctx.demand[s];
    if (remaining <= 0.0) continue;
    // The head takes the whole demand whenever it has room for it: the
    // greedy walk below would place it all there and stop.
    const std::uint32_t head = head_[s];
    if (strict_limit_[head] - out.cluster_total(head) >= remaining) [[likely]] {
      out.add(s, head, remaining);
      continue;
    }
    const std::uint64_t head_bit = std::uint64_t{1} << rank_of_[head];

    // Greedy assignment with iterative spill on capacity / 95-5 limits,
    // in the plan's price order (nearest preference pre-applied).
    remaining = walk(s, head_bit, rank_bits_[s], strict_limit_.data(),
                     strict_full, remaining, out);

    // Candidates full: hand the remainder back to the baseline pipeline
    // (when configured), still under strict limits.
    if (remaining > 0.0 && fallback_ != nullptr) {
      const StateId state{static_cast<std::int32_t>(s)};
      const double handed = remaining;
      for (std::size_t c = 0; c < cluster_count_ && remaining > 0.0; ++c) {
        const double w = fallback_->cluster_weight(state, c);
        if (w <= 0.0) continue;
        const double want = handed * w;
        const double room = strict_limit_[c] - out.cluster_total(c);
        const double take = std::min({remaining, want, std::max(0.0, room)});
        if (take > 0.0) {
          out.add(s, c, take);
          remaining -= take;
        }
      }
    }

    // Nearby demand exceeds the references: burst in-threshold clusters
    // with budget (cheapest first) before shipping traffic far away.
    // The per-interval budget check rations bursts to 5% of intervals,
    // which is exactly what 95/5 billing tolerates.
    if (remaining > 0.0 && with_p95) {
      remaining = walk(s, head_bit & burstable, rank_bits_[s] & burstable,
                       ctx.capacity.data(), capacity_full, remaining, out);
    }

    // Spill outward by distance, still under strict limits.
    const std::uint32_t* const order = by_distance_.data() + s * cluster_count_;
    if (remaining > 0.0) {
      for (auto i = static_cast<std::size_t>(std::popcount(candidate_bits_[s]));
           i < cluster_count_ && remaining > 0.0; ++i) {
        const std::size_t c = order[i];
        const double room = strict_limit_[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }

    if (remaining > 0.0) leftovers_.push_back(Leftover{s, remaining});
  }

  // Phase 2: the strictly-limited system is full - this is a genuine
  // demand peak. Spend burst budget, cheapest burstable cluster first,
  // then fall back to raw capacity, and finally overload the closest
  // cluster (the engine counts that as an overflow).
  for (auto& [s, remaining] : leftovers_) {
    const std::uint32_t* const order = by_distance_.data() + s * cluster_count_;
    if (with_p95) {
      remaining = walk(s, 0, burstable, ctx.capacity.data(), capacity_full,
                       remaining, out);
    }
    if (remaining > 0.0) {
      for (std::size_t i = 0; i < cluster_count_ && remaining > 0.0; ++i) {
        const std::size_t c = order[i];
        const double room = ctx.capacity[c] - out.cluster_total(c);
        if (room <= 0.0) continue;
        const double take = std::min(remaining, room);
        out.add(s, c, take);
        remaining -= take;
      }
    }
    if (remaining > 0.0) {
      out.add(s, order[0], remaining);  // overload; engine counts it
    }
  }
}

}  // namespace cebis::core

