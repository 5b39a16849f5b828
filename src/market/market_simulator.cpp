#include "market/market_simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "base/parallel.h"
#include "geo/latlon.h"

namespace cebis::market {

namespace {

// Sub-stream ids for seed derivation; keeping them distinct means adding
// draws to one component never shifts another's stream.
constexpr std::uint64_t kStreamNational = 1;
constexpr std::uint64_t kStreamRegional = 10;   // + rto
constexpr std::uint64_t kStreamRegionalFast = 30;  // + rto
constexpr std::uint64_t kStreamLocal = 100;     // + rto
constexpr std::uint64_t kStreamSpike = 300;     // + hub
constexpr std::uint64_t kStreamRtoEvent = 400;  // + rto
constexpr std::uint64_t kStreamDayAhead = 500;  // + hub
constexpr std::uint64_t kStreamFiveMin = 600;   // + hub
constexpr std::uint64_t kStreamMidC = 700;
constexpr std::uint64_t kStreamMicro = 800;  // + hub
constexpr std::uint64_t kStreamScarcity = 900;  // + rto

[[nodiscard]] double innovation_sigma(double stationary_sigma, double phi) {
  return stationary_sigma * std::sqrt(std::max(0.0, 1.0 - phi * phi));
}

/// Intra-hour AR(1) parameters time-rescaled from the 5-minute
/// calibration to `samples_per_hour` samples: one sample spans
/// k = 12 / samples_per_hour five-minute units, so persistence is
/// phi^k and the per-sample spike probability is the complement of k
/// spike-free units. At 12 samples per hour this is the calibration
/// itself (bit-for-bit, no pow round-trip).
struct SubHourlyParams {
  double phi;
  double spike_rate;
  double inno;

  SubHourlyParams(const FiveMinParams& fm, int samples_per_hour) {
    const double k = 12.0 / static_cast<double>(samples_per_hour);
    phi = samples_per_hour == 12 ? fm.phi : std::pow(fm.phi, k);
    spike_rate = samples_per_hour == 12
                     ? fm.spike_rate
                     : 1.0 - std::pow(1.0 - fm.spike_rate, k);
    inno = innovation_sigma(fm.sigma, phi);
  }
};

void expect_divides_hour(int samples_per_hour, const char* who) {
  if (!divides_hour(samples_per_hour)) {
    throw std::invalid_argument(std::string(who) +
                                ": samples_per_hour must divide 60");
  }
}

/// One market RTO's share of generate(). Every stream it draws from
/// belongs to the RTO (regional, fast-regional, local, scarcity, event)
/// or to one of its hubs (spike, micro, day-ahead), except the national
/// factor: each task replays it from its own copy of the national
/// stream, so every task sees the same national path. Built on the
/// calling thread (streams, per-hub constants, scratch and the hubs'
/// pre-sized output rows); run() allocates nothing and writes only its
/// hubs' rows.
class RtoTask {
 public:
  RtoTask(const HubRegistry& hubs, const PriceModelParams& params,
          const stats::Matrix& chol, Rto rto, const stats::Rng& base,
          std::vector<std::vector<double>>& rt,
          std::vector<std::vector<double>>& da);

  /// Evolves every factor from the study epoch to `period.end` and
  /// prices the hours of `period`.
  void run(const Period& period);

 private:
  struct Hub {
    const HubInfo* info;
    double* rt;  // output rows, one value per hour of the period
    double* da;
    stats::Rng spike_rng;
    stats::Rng micro_rng;
    stats::Rng da_rng;
    // Hour-invariant terms, hoisted out of the hour loop.
    double local_scale;  // sigma_local * vol_scale
    double micro_sigma;  // micro_sigma * vol_scale
    double onset;        // spike onset probability per hour
    double var;          // log-price variance of the level, divided out
    double da_var;       // the same for the day-ahead price
    // Factor state.
    double local = 0.0;
    double spike = 0.0;
    double scarcity = 0.0;
  };

  /// Draws the RTO's correlated local innovations into corr_.
  void draw_local() {
    for (double& v : z_) v = loc_.normal();
    chol_.mul(z_, corr_);
  }

  const PriceModelParams& params_;
  const stats::Matrix& chol_;
  double scarcity_rate_;
  stats::Rng nat_;
  stats::Rng reg_;
  stats::Rng reg_fast_;
  stats::Rng loc_;
  stats::Rng scarce_;
  stats::Rng evt_;
  std::vector<Hub> members_;
  std::vector<double> z_;
  std::vector<double> corr_;
};

RtoTask::RtoTask(const HubRegistry& hubs, const PriceModelParams& params,
                 const stats::Matrix& chol, Rto rto, const stats::Rng& base,
                 std::vector<std::vector<double>>& rt,
                 std::vector<std::vector<double>>& da)
    : params_(params),
      chol_(chol),
      scarcity_rate_(params.spikes.scarcity_per_hour * params.scarcity_scale_for(rto)),
      nat_(base.split(kStreamNational)),
      reg_(base.split(kStreamRegional + static_cast<std::uint64_t>(rto))),
      reg_fast_(base.split(kStreamRegionalFast + static_cast<std::uint64_t>(rto))),
      loc_(base.split(kStreamLocal + static_cast<std::uint64_t>(rto))),
      scarce_(base.split(kStreamScarcity + static_cast<std::uint64_t>(rto))),
      evt_(base.split(kStreamRtoEvent + static_cast<std::uint64_t>(rto))) {
  const FactorParams& fp = params_.factors;
  const auto members = hubs.hubs_in(rto);
  members_.reserve(members.size());
  for (HubId id : members) {
    const HubInfo& hub = hubs.info(id);
    // exp() of a zero-mean normal has mean exp(var/2); the level divides
    // it out so the hub's long-run level tracks base_price.
    const double bs2 = hub.beta_slow * hub.beta_slow;
    const double bf2 = hub.beta_fast * hub.beta_fast;
    const double var =
        bs2 * (fp.sigma_national * fp.sigma_national +
               fp.sigma_regional * fp.sigma_regional) +
        bf2 * (fp.sigma_regional_fast * fp.sigma_regional_fast +
               (fp.sigma_local * hub.vol_scale) * (fp.sigma_local * hub.vol_scale) +
               (fp.micro_sigma * hub.vol_scale) * (fp.micro_sigma * hub.vol_scale));
    const double da_var = bs2 * (fp.sigma_national * fp.sigma_national +
                                 fp.sigma_regional * fp.sigma_regional) +
                          params_.day_ahead.noise_sigma * params_.day_ahead.noise_sigma;
    members_.push_back(Hub{&hub,
                           rt[id.index()].data(),
                           da[id.index()].data(),
                           base.split(kStreamSpike + id.index()),
                           base.split(kStreamMicro + id.index()),
                           base.split(kStreamDayAhead + id.index()),
                           fp.sigma_local * hub.vol_scale,
                           fp.micro_sigma * hub.vol_scale,
                           params_.spikes.onset_per_hour * hub.spike_rate_scale,
                           var,
                           da_var});
  }
  z_.resize(members.size());
  corr_.resize(members.size());
}

void RtoTask::run(const Period& period) {
  const FactorParams& fp = params_.factors;
  const SpikeParams& sp = params_.spikes;

  // Factor state, initialized at the stationary distribution.
  double national = nat_.normal(0.0, fp.sigma_national);
  double regional = reg_.normal(0.0, fp.sigma_regional);
  double regional_fast = reg_fast_.normal(0.0, fp.sigma_regional_fast);
  draw_local();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    members_[i].local = corr_[i] * fp.sigma_local * members_[i].info->vol_scale;
  }

  // Day-ahead factor snapshot, refreshed at each (epoch) day boundary.
  double da_nat = national;
  double da_reg = regional;

  const double nat_inno = innovation_sigma(fp.sigma_national, fp.phi_national);
  const double reg_inno = innovation_sigma(fp.sigma_regional, fp.phi_regional);
  const double reg_fast_inno =
      innovation_sigma(fp.sigma_regional_fast, fp.phi_regional_fast);
  const double loc_inno_unit = std::sqrt(std::max(0.0, 1.0 - fp.phi_local * fp.phi_local));

  for (HourIndex t = study_period().begin; t < period.end; ++t) {
    // --- factor evolution --------------------------------------------
    national = fp.phi_national * national + nat_.normal(0.0, nat_inno);
    regional = fp.phi_regional * regional + reg_.normal(0.0, reg_inno);
    regional_fast =
        fp.phi_regional_fast * regional_fast + reg_fast_.normal(0.0, reg_fast_inno);
    draw_local();
    for (std::size_t i = 0; i < members_.size(); ++i) {
      Hub& h = members_[i];
      h.local = fp.phi_local * h.local + corr_[i] * h.local_scale * loc_inno_unit;
    }

    if (hour_of_day(t) == 0) {
      da_nat = national;
      da_reg = regional;
    }

    // --- scarcity events (rare, sustained, near-cap) -------------------
    if (scarce_.bernoulli(scarcity_rate_)) {
      const double mag = scarce_.uniform(sp.scarcity_lo, sp.scarcity_hi);
      for (Hub& h : members_) {
        if (scarce_.bernoulli(0.9)) h.scarcity = mag * scarce_.uniform(0.8, 1.2);
      }
    }
    for (Hub& h : members_) {
      if (h.scarcity != 0.0) {
        h.scarcity = scarce_.bernoulli(sp.scarcity_persist) ? h.scarcity * 0.9 : 0.0;
        if (h.scarcity < 1.0) h.scarcity = 0.0;
      }
    }

    // --- spikes -------------------------------------------------------
    if (evt_.bernoulli(sp.rto_event_per_hour)) {
      const double mag =
          std::min(evt_.pareto(sp.pareto_xm, sp.pareto_alpha), sp.magnitude_cap);
      for (Hub& h : members_) {
        if (evt_.bernoulli(sp.rto_participation)) {
          h.spike += mag * evt_.uniform(0.7, 1.0) * h.info->spike_scale;
        }
      }
    }
    for (Hub& h : members_) {
      if (h.spike != 0.0) {
        h.spike = h.spike_rng.bernoulli(sp.persist) ? h.spike * sp.decay : 0.0;
        if (std::abs(h.spike) < 1.0) h.spike = 0.0;
      }
      if (h.spike_rng.bernoulli(h.onset)) {
        double mag = std::min(h.spike_rng.pareto(sp.pareto_xm, sp.pareto_alpha),
                              sp.magnitude_cap) *
                     h.info->spike_scale;
        if (h.spike_rng.bernoulli(sp.p_negative)) mag = -mag * sp.negative_scale;
        h.spike += mag;
      }
    }

    if (t < period.begin) {
      // Still consume the per-hub micro/DA draws so output is invariant
      // to the requested window.
      for (Hub& h : members_) {
        (void)h.micro_rng.normal();
        (void)h.da_rng.normal();
      }
      continue;
    }

    // --- price assembly ------------------------------------------------
    const auto row = static_cast<std::size_t>(t - period.begin);
    const CivilDate date = date_of(t);
    for (Hub& h : members_) {
      const HubInfo& hub = *h.info;
      const double shape = deterministic_shape(t, date, hub.utc_offset_hours, hub.rto);
      const double slow = hub.beta_slow * (national + regional);
      const double fast = hub.beta_fast * (regional_fast + h.local);
      const double micro = hub.beta_fast * h.micro_rng.normal(0.0, h.micro_sigma);
      const double level =
          hub.base_price * shape * std::exp(slow + fast + micro - h.var / 2.0);
      const double price = level + h.spike + h.scarcity;
      h.rt[row] = std::clamp(price, params_.price_floor, params_.price_cap);

      // Day-ahead: previous-day factor snapshot, no spikes, mild noise.
      const double da_x = hub.beta_slow * (da_nat + da_reg);
      const double da_noise = h.da_rng.normal(0.0, params_.day_ahead.noise_sigma);
      const double da_price = hub.base_price * shape * params_.day_ahead.premium *
                              std::exp(da_x + da_noise - h.da_var / 2.0);
      h.da[row] = std::clamp(da_price, 0.0, params_.price_cap);
    }
  }
}

}  // namespace

MarketSimulator::MarketSimulator(const HubRegistry& hubs, PriceModelParams params,
                                 std::uint64_t seed)
    : hubs_(hubs), params_(std::move(params)), seed_(seed) {
  rto_chol_.resize(kRtoCount);
  for (Rto rto : market_rtos()) {
    const auto ids = hubs_.hubs_in(rto);
    if (ids.empty()) continue;
    stats::Matrix dist(ids.size(), ids.size(), 0.0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        dist.at(i, j) =
            geo::haversine(hubs_.info(ids[i]).location, hubs_.info(ids[j]).location)
                .value();
      }
    }
    const stats::Matrix kernel =
        stats::exponential_kernel(dist, params_.lambda_for(rto), 1e-6);
    rto_chol_[static_cast<std::size_t>(rto)] = stats::cholesky(kernel);
  }
}

PriceSet MarketSimulator::generate(const Period& period) const {
  const Period study = study_period();
  if (period.begin < study.begin || period.end < period.begin) {
    throw std::invalid_argument("MarketSimulator::generate: period before study epoch");
  }

  const std::size_t hub_count = hubs_.size();
  const auto n_out = static_cast<std::size_t>(period.hours());
  std::vector<std::vector<double>> rt(hub_count);
  std::vector<std::vector<double>> da(hub_count);
  for (HubId id : hubs_.hourly_hubs()) {
    rt[id.index()].resize(n_out);
    da[id.index()].resize(n_out);
  }

  // One task per market RTO, built here and handed out largest first.
  std::vector<Rto> order(market_rtos().begin(), market_rtos().end());
  std::stable_sort(order.begin(), order.end(), [this](Rto a, Rto b) {
    return hubs_.hubs_in(a).size() > hubs_.hubs_in(b).size();
  });
  const stats::Rng base(seed_);
  std::vector<RtoTask> tasks;
  tasks.reserve(order.size());
  for (Rto rto : order) {
    if (hubs_.hubs_in(rto).empty()) continue;
    tasks.emplace_back(hubs_, params_, rto_chol_[static_cast<std::size_t>(rto)],
                       rto, base, rt, da);
  }
  parallel_for_index(
      static_cast<std::int64_t>(tasks.size()), default_thread_count(),
      [&](std::int64_t i) { tasks[static_cast<std::size_t>(i)].run(period); });

  PriceSet out;
  out.period = period;
  out.rt.resize(hub_count);
  out.da.resize(hub_count);
  for (HubId id : hubs_.hourly_hubs()) {
    out.rt[id.index()] = HourlySeries(period, std::move(rt[id.index()]));
    out.da[id.index()] = HourlySeries(period, std::move(da[id.index()]));
  }
  return out;
}

PriceSet MarketSimulator::generate(const Period& period,
                                   int samples_per_hour) const {
  expect_divides_hour(samples_per_hour, "MarketSimulator::generate");
  PriceSet set = generate(period);
  if (samples_per_hour == 1) return set;
  set.samples_per_hour = samples_per_hour;
  // Each hub's intra-hour process evolves from the study epoch (the
  // draws for hours before the window are consumed, not emitted), so
  // the output is invariant to the requested window.
  const std::int64_t warmup_hours = period.begin - study_period().begin;
  for (HubId id : hubs_.hourly_hubs()) {
    set.rt[id.index()] = intra_hour_view(id, set.rt[id.index()],
                                         samples_per_hour, warmup_hours);
  }
  return set;
}

std::vector<double> MarketSimulator::sub_hourly_series(
    HubId hub, const HourlySeries& hourly, int samples_per_hour) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("sub_hourly_series: bad hub");
  }
  expect_divides_hour(samples_per_hour, "sub_hourly_series");
  if (hourly.samples_per_hour() != 1) {
    throw std::invalid_argument(
        "sub_hourly_series: base series must be hourly");
  }
  return intra_hour_samples(hub, hourly.values(), samples_per_hour, 0);
}

PriceSeries MarketSimulator::intra_hour_view(HubId hub,
                                             const HourlySeries& hourly,
                                             int samples_per_hour,
                                             std::int64_t warmup_hours) const {
  if (60 / samples_per_hour < hubs_.info(hub).rt_interval_minutes) {
    // The hub's market settles no finer than its native interval:
    // every sub-sample repeats the hourly settlement.
    std::vector<double> flat;
    flat.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
    for (const double hour_price : hourly.values()) {
      flat.insert(flat.end(), static_cast<std::size_t>(samples_per_hour),
                  hour_price);
    }
    return PriceSeries(hourly.period(), samples_per_hour, std::move(flat));
  }
  return PriceSeries(hourly.period(), samples_per_hour,
                     intra_hour_samples(hub, hourly.values(), samples_per_hour,
                                        warmup_hours));
}

std::vector<double> MarketSimulator::intra_hour_samples(
    HubId hub, std::span<const double> hourly, int samples_per_hour,
    std::int64_t warmup_hours) const {
  const FiveMinParams& fm = params_.five_min;
  const SubHourlyParams sub(fm, samples_per_hour);
  stats::Rng rng = stats::Rng(seed_).split(kStreamFiveMin + hub.index());
  std::vector<double> out;
  out.reserve(hourly.size() * static_cast<std::size_t>(samples_per_hour));
  double ar = 0.0;
  const std::int64_t hours =
      warmup_hours + static_cast<std::int64_t>(hourly.size());
  for (std::int64_t t = 0; t < hours; ++t) {
    // A warm-up hour makes exactly the draws an emitted hour makes.
    const bool emit = t >= warmup_hours;
    const double hour_price =
        emit ? hourly[static_cast<std::size_t>(t - warmup_hours)] : 0.0;
    for (int i = 0; i < samples_per_hour; ++i) {
      ar = sub.phi * ar + rng.normal(0.0, sub.inno);
      double p = hour_price * std::exp(ar - fm.sigma * fm.sigma / 2.0);
      if (rng.bernoulli(sub.spike_rate)) {
        p += rng.pareto(fm.spike_scale, 1.8);
      }
      if (emit) {
        out.push_back(std::clamp(p, params_.price_floor, params_.price_cap));
      }
    }
  }
  return out;
}

DailySeries MarketSimulator::daily_day_ahead_peak(const PriceSet& prices,
                                                  HubId hub) const {
  if (!hub.valid() || hub.index() >= hubs_.size()) {
    throw std::out_of_range("daily_day_ahead_peak: bad hub");
  }
  const HubInfo& info = hubs_.info(hub);
  DailySeries out;
  out.first_day = day_index(prices.period.begin);
  if (info.hourly_market) {
    out.values = prices.da[hub.index()].daily_peak_averages(info.utc_offset_hours);
    return out;
  }

  // Northwest (MID-C): no hourly market. Daily hydro-driven process with
  // low volatility, seasonal runoff dips, no gas-price exposure.
  stats::Rng rng = stats::Rng(seed_).split(kStreamMidC);
  const std::int64_t days = prices.period.hours() / 24;
  out.values.reserve(static_cast<std::size_t>(days));
  double ar = rng.normal(0.0, 0.12);
  // Evolve from the study epoch so overlapping windows agree.
  const std::int64_t first_epoch_day = day_index(study_period().begin);
  for (std::int64_t d = first_epoch_day; d < out.first_day + days; ++d) {
    ar = 0.92 * ar + rng.normal(0.0, 0.12 * std::sqrt(1.0 - 0.92 * 0.92));
    if (d < out.first_day) continue;
    const HourIndex noon = d * 24 + 12;
    const int mi = month_index(noon);
    const double price =
        info.base_price * hydro_seasonal_curve(mi) * std::exp(ar - 0.12 * 0.12 / 2.0);
    out.values.push_back(std::max(price, 1.0));
  }
  return out;
}

}  // namespace cebis::market
