#include "storage/storage_controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "billing/tariff.h"
#include "stats/percentile.h"

namespace cebis::storage {

StorageController::StorageController(core::StorageSpec spec,
                                     obs::MetricsRegistry* metrics)
    : spec_(std::move(spec)), metrics_(metrics) {
  // Validate the policy, the battery parameters and the policy config
  // eagerly so a bad spec fails at construction, not mid-run - an
  // unknown policy name first, then each battery and the begin()-time
  // checks it meets, like the Lyapunov band-vs-efficiency guard.
  const std::unique_ptr<ChargePolicy> policy =
      make_policy(spec_.policy, spec_.policy_config);
  (void)Battery(spec_.battery);
  policy->begin(spec_.battery);
  for (const BatteryParams& p : spec_.per_cluster) {
    (void)Battery(p);
    policy->begin(p);
  }
}

StorageController::~StorageController() = default;

void StorageController::begin_month(int month) {
  guard_month_ = month;
  month_done_ = 0;
  // The demand meter only sees the intervals the billing period covers:
  // a run starting (or ending) mid-month meters the clipped month, the
  // same split bill_interval_load applies.
  const HourIndex lo = std::max(month_begin(month), period_.begin);
  const HourIndex hi = std::min(month_end(month), period_.end);
  month_intervals_ = std::max<std::int64_t>(0, hi - lo) * meter_sph_;
  // The exact guard inserts each of the month's intervals once, so its
  // heaps never grow mid-month.
  const auto room = static_cast<std::size_t>(
      guard_peaks_ && exact_guard_ ? month_intervals_ : 0);
  for (auto& stats : month_raw_stats_) stats.clear(room);
}

void StorageController::on_run_begin(const core::RunInfo& info,
                                     std::span<const core::Cluster> clusters) {
  const std::size_t n = clusters.size();
  if (!spec_.per_cluster.empty() && spec_.per_cluster.size() != n) {
    throw std::invalid_argument(
        "StorageController: per_cluster battery override does not match the "
        "cluster count");
  }
  if (!cadences_nest(info.steps_per_hour, info.price_samples_per_hour)) {
    throw std::invalid_argument(
        "StorageController: accounting steps and the metering interval must "
        "nest (one samples-per-hour must divide the other)");
  }
  period_ = info.period;
  steps_per_hour_ = info.steps_per_hour;
  meter_sph_ = info.price_samples_per_hour;
  guard_peaks_ = spec_.cap_charge_at_peak &&
                 spec_.tariff.demand_usd_per_kw_month.value() > 0.0;
  exact_guard_ = meter_sph_ >= steps_per_hour_;
  batteries_.clear();
  policies_.clear();
  for (std::size_t c = 0; c < n; ++c) {
    const BatteryParams& params =
        spec_.per_cluster.empty() ? spec_.battery : spec_.per_cluster[c];
    batteries_.emplace_back(params);
    policies_.push_back(make_policy(spec_.policy, spec_.policy_config));
    policies_.back()->begin(params);
  }
  const auto intervals =
      static_cast<std::size_t>(info.period.hours() * meter_sph_);
  raw_mwh_.assign(n, std::vector<double>(intervals, 0.0));
  net_mwh_.assign(n, std::vector<double>(intervals, 0.0));
  spot_.assign(n, std::vector<double>(intervals, 0.0));
  interval_net_mwh_.assign(n, 0.0);
  month_net_mwh_.assign(n, {});
  month_level_mwh_.assign(n, 0.0);
  month_raw_stats_.assign(n, {});
  guard_row_ = 0;
  // Month state is anchored at the run's first hour - a run starting
  // mid-month meters exactly the intervals its billing period covers
  // (regression-tested for non-month-boundary starts).
  begin_month(month_index(info.period.begin));
  if (metrics_ != nullptr) {
    // Resolved here - not at construction - so the handle binds to the
    // metric shard of whichever thread actually steps the run.
    m_guard_activations_ = metrics_->counter(
        "cebis_storage_guard_activations_total",
        "Charge-guard clamps that reduced a policy's charge request",
        {{"policy", spec_.policy}});
  }
}

double StorageController::raw_demand_floor(std::size_t cluster) {
  const std::int64_t n = month_intervals_;
  if (n <= 0) return 0.0;
  // R-7 rank over the month's full interval count, with the intervals
  // still to come taken as zero load. Zero-padding only underestimates
  // (loads are nonnegative), and the *lower* adjacent order statistic
  // is a lower bound on the interpolated percentile, so this floor can
  // only rise toward the month's final billed raw demand - capping net
  // intervals at max(raw, floor) therefore provably keeps the billed
  // net demand at or below raw, at any percentile and any resolution.
  const double rank =
      spec_.tariff.demand_percentile / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::int64_t>(std::floor(rank));
  const std::int64_t zeros = n - month_done_;
  if (lo < zeros) return 0.0;
  auto& stats = month_raw_stats_[cluster];
  const auto idx = static_cast<std::size_t>(lo - zeros);
  return idx < stats.size() ? stats.at(idx) : 0.0;
}

void StorageController::on_step(const core::StepView& view) {
  // The metering rows this step covers: the one containing it, or - for
  // a step coarser than the meter - `per_step` whole rows from `row`.
  const auto [row, per_step] =
      step_rows(view.step, steps_per_hour_, meter_sph_);

  if (guard_peaks_ && !exact_guard_ && row != guard_row_) {
    // Legacy (meter coarser than step) path: fold the completed interval
    // into the month's demand measurement and refresh the established
    // billed level (the tariff's percentile of the completed net
    // intervals); a new calendar month starts fresh.
    const int month = month_index(view.hour);
    const bool new_month = month != guard_month_;
    for (std::size_t c = 0; c < batteries_.size(); ++c) {
      if (new_month) {
        month_net_mwh_[c].clear();
      } else {
        month_net_mwh_[c].push_back(interval_net_mwh_[c]);
      }
      month_level_mwh_[c] =
          month_net_mwh_[c].empty()
              ? 0.0
              : stats::percentile(month_net_mwh_[c],
                                  spec_.tariff.demand_percentile);
      interval_net_mwh_[c] = 0.0;
    }
    guard_row_ = row;
    guard_month_ = month;
  }
  if (guard_peaks_ && exact_guard_) {
    const int month = month_index(view.hour);
    if (month != guard_month_) begin_month(month);
  }

  for (std::size_t c = 0; c < batteries_.size(); ++c) {
    const double load = view.energy_mwh[c];
    const double price = view.billing_price[c];

    PolicyContext ctx;
    ctx.hour = view.hour;
    ctx.dt = view.dt;
    ctx.price_usd_per_mwh = price;
    ctx.load_mwh = load;
    ctx.battery = &batteries_[c];
    const double intent = policies_[c]->decide(ctx);

    double grid = load;
    if (intent > 0.0) {
      double request = intent;
      if (guard_peaks_ && exact_guard_) {
        // Exact interval metering: the step IS `per_step` complete
        // intervals, each carrying load / per_step. Cap charging so
        // every interval's net stays at or below max(raw, floor) -
        // since raw is known here, there is no within-interval future
        // load to mispredict and no pro-rata sliver.
        const double floor_mwh = raw_demand_floor(c);
        request = std::min(
            request,
            std::max(0.0,
                     floor_mwh * static_cast<double>(per_step) - load));
        if (request < intent) m_guard_activations_.add();
      } else if (guard_peaks_) {
        // Charging may fill the interval only up to the month's
        // established billed-demand level - it must never set the billed
        // demand itself. The budget is enforced cumulatively over the
        // interval AND pro-rata per step, so early charging cannot eat
        // the budget the rest of the interval's load still needs.
        const double step_frac =
            view.dt.value() * static_cast<double>(meter_sph_);
        const double budget =
            std::min(month_level_mwh_[c] * step_frac,
                     month_level_mwh_[c] - interval_net_mwh_[c]) -
            load;
        request = std::min(request, std::max(0.0, budget));
        if (request < intent) m_guard_activations_.add();
      }
      grid += batteries_[c].charge(MegawattHours{request}, view.dt).value();
    } else if (intent < 0.0) {
      // Discharge serves local load only (no export to the grid).
      const double request = std::min(-intent, load);
      grid -= batteries_[c].discharge(MegawattHours{request}, view.dt).value();
    }

    // Demand (and the battery's grid action) is uniform within a step,
    // so a step coarser than the meter spreads evenly across its
    // intervals; the engine billed the step at its time-mean price,
    // which each interval inherits.
    const double raw_share = load / static_cast<double>(per_step);
    const double net_share = grid / static_cast<double>(per_step);
    for (std::int64_t i = 0; i < per_step; ++i) {
      raw_mwh_[c][static_cast<std::size_t>(row + i)] += raw_share;
      net_mwh_[c][static_cast<std::size_t>(row + i)] += net_share;
      spot_[c][static_cast<std::size_t>(row + i)] = price;
    }

    if (guard_peaks_ && exact_guard_) {
      // Fold the step's completed raw intervals into the month's
      // measurement (the floor for *later* decisions; this cluster's
      // own cap above read the pre-step state).
      auto& stats = month_raw_stats_[c];
      const double raw_share = load / static_cast<double>(per_step);
      for (std::int64_t i = 0; i < per_step; ++i) stats.insert(raw_share);
    } else if (guard_peaks_) {
      interval_net_mwh_[c] += grid;
    }
  }
  if (guard_peaks_ && exact_guard_) month_done_ += per_step;
}

void StorageController::on_run_end(core::RunResult& result) {
  const std::size_t n = batteries_.size();
  core::StorageOutcome outcome;
  outcome.engaged = true;
  outcome.cluster_raw_usd.assign(n, 0.0);
  outcome.cluster_net_usd.assign(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    const billing::TariffBill raw = billing::bill_interval_load(
        spec_.tariff, period_, meter_sph_, raw_mwh_[c], spot_[c]);
    const billing::TariffBill net = billing::bill_interval_load(
        spec_.tariff, period_, meter_sph_, net_mwh_[c], spot_[c]);
    outcome.raw_energy += raw.energy;
    outcome.raw_demand += raw.demand;
    outcome.net_energy += net.energy;
    outcome.net_demand += net.demand;
    outcome.cluster_raw_usd[c] = raw.total().value();
    outcome.cluster_net_usd[c] = net.total().value();
    outcome.charged_mwh += batteries_[c].total_charged().value();
    outcome.discharged_mwh += batteries_[c].total_discharged().value();
    outcome.loss_mwh += batteries_[c].conversion_loss().value();
    outcome.final_soc_mwh += batteries_[c].soc().value();
  }
  result.storage = std::move(outcome);
}

}  // namespace cebis::storage
