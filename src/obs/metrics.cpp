#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace cebis::obs {

namespace {

/// Sorted-by-key copy of a label set (registries treat them unordered).
Labels sorted(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Series identity: name + sorted labels, '\x1f'/'\x1e' separated (both
/// outside any label value we emit).
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

}  // namespace

/// One registered series: identity plus its slot range. Every shard
/// maps the same [offset, offset + slots) range onto its own storage.
struct MetricsRegistry::Instrument {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;
  std::vector<double> bounds;  ///< histogram only; address-stable
  std::size_t offset = 0;
  std::size_t slots = 1;
};

/// One thread's (or the shared) slot storage: fixed-size blocks so slot
/// addresses never move once handed to a handle.
struct MetricsRegistry::Shard {
  static constexpr std::size_t kBlock = 256;
  std::vector<std::unique_ptr<std::atomic<double>[]>> blocks;
  std::size_t capacity = 0;

  std::atomic<double>& slot(std::size_t i) {
    return blocks[i / kBlock][i % kBlock];
  }
  [[nodiscard]] const std::atomic<double>& slot(std::size_t i) const {
    return blocks[i / kBlock][i % kBlock];
  }
  void ensure(std::size_t need) {
    while (capacity < need) {
      // make_unique value-initializes: fresh slots read 0.0.
      blocks.push_back(std::make_unique<std::atomic<double>[]>(kBlock));
      capacity += kBlock;
    }
  }
};

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::deque<Instrument> instruments;         // stable addresses
  std::map<std::string, Instrument*> index;   // series_key -> instrument
  std::size_t slots_used = 0;

  Shard shared;                               // gauges
  std::deque<Shard> shards;                   // per thread, stable
  std::map<std::thread::id, Shard*> by_thread;
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}

MetricsRegistry::~MetricsRegistry() = default;

const MetricsRegistry::Instrument& MetricsRegistry::intern(
    MetricKind kind, std::string_view name, std::string_view help,
    Labels labels, std::span<const double> bounds) {
  labels = sorted(std::move(labels));
  const std::string key = series_key(name, labels);
  const auto it = impl_->index.find(key);
  if (it != impl_->index.end()) {
    const Instrument& ins = *it->second;
    if (ins.kind != kind ||
        !std::equal(ins.bounds.begin(), ins.bounds.end(), bounds.begin(),
                    bounds.end())) {
      throw std::invalid_argument("MetricsRegistry: series '" +
                                  std::string(name) +
                                  "' re-registered with a different kind "
                                  "or bucket bounds");
    }
    return ins;
  }
  Instrument ins;
  ins.name = std::string(name);
  ins.help = std::string(help);
  ins.kind = kind;
  ins.labels = std::move(labels);
  ins.bounds.assign(bounds.begin(), bounds.end());
  if (!std::is_sorted(ins.bounds.begin(), ins.bounds.end())) {
    throw std::invalid_argument("MetricsRegistry: histogram bounds for '" +
                                std::string(name) + "' must be ascending");
  }
  // Histogram layout: bounds.size() + 1 buckets (+Inf last), sum, count.
  ins.slots = kind == MetricKind::kHistogram ? ins.bounds.size() + 3 : 1;
  if (kind == MetricKind::kHistogram) {
    if (ins.slots > Shard::kBlock) {
      throw std::invalid_argument("MetricsRegistry: histogram '" +
                                  std::string(name) + "' has too many bounds");
    }
    // A histogram handle walks its slots as one contiguous array, so
    // the range must not straddle a storage block: pad to the next
    // block when it would.
    const std::size_t off = impl_->slots_used;
    if (off / Shard::kBlock != (off + ins.slots - 1) / Shard::kBlock) {
      impl_->slots_used = (off / Shard::kBlock + 1) * Shard::kBlock;
    }
  }
  ins.offset = impl_->slots_used;
  impl_->slots_used += ins.slots;
  impl_->instruments.push_back(std::move(ins));
  Instrument* stored = &impl_->instruments.back();
  impl_->index.emplace(key, stored);
  return *stored;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_current_thread_locked() {
  const std::thread::id tid = std::this_thread::get_id();
  const auto it = impl_->by_thread.find(tid);
  if (it != impl_->by_thread.end()) return *it->second;
  impl_->shards.emplace_back();
  Shard* shard = &impl_->shards.back();
  impl_->by_thread.emplace(tid, shard);
  return *shard;
}

std::atomic<double>* MetricsRegistry::slots_locked(Shard& shard,
                                                   std::size_t offset,
                                                   std::size_t count) {
  shard.ensure(offset + count);
  return &shard.slot(offset);
}

Counter MetricsRegistry::counter(std::string_view name, std::string_view help,
                                 Labels labels) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const Instrument& ins =
      intern(MetricKind::kCounter, name, help, std::move(labels), {});
  Shard& shard = shard_for_current_thread_locked();
  return Counter{slots_locked(shard, ins.offset, 1)};
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help,
                             Labels labels) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const Instrument& ins =
      intern(MetricKind::kGauge, name, help, std::move(labels), {});
  return Gauge{slots_locked(impl_->shared, ins.offset, 1)};
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::string_view help,
                                     std::span<const double> bounds,
                                     Labels labels) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  const Instrument& ins =
      intern(MetricKind::kHistogram, name, help, std::move(labels), bounds);
  Shard& shard = shard_for_current_thread_locked();
  return Histogram{slots_locked(shard, ins.offset, ins.slots),
                   ins.bounds.data(), ins.bounds.size()};
}

std::vector<double> MetricsRegistry::linear_bounds(double lo, double hi,
                                                   double bin_width) {
  if (!(bin_width > 0.0) || !(hi > lo)) {
    throw std::invalid_argument("linear_bounds: need hi > lo, bin_width > 0");
  }
  const auto bins =
      static_cast<std::size_t>(std::ceil((hi - lo) / bin_width - 1e-9));
  std::vector<double> bounds;
  bounds.reserve(bins);
  for (std::size_t i = 1; i <= bins; ++i) {
    bounds.push_back(lo + static_cast<double>(i) * bin_width);
  }
  return bounds;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  const std::lock_guard<std::mutex> lock(impl_->mu);
  snap.samples.reserve(impl_->instruments.size());
  for (const Instrument& ins : impl_->instruments) {
    MetricSample sample;
    sample.name = ins.name;
    sample.help = ins.help;
    sample.kind = ins.kind;
    sample.labels = ins.labels;
    sample.bounds = ins.bounds;

    const auto read = [&](std::size_t slot_index) {
      double total = 0.0;
      if (ins.kind == MetricKind::kGauge) {
        if (slot_index < impl_->shared.capacity) {
          total = impl_->shared.slot(slot_index).load(std::memory_order_relaxed);
        }
        return total;
      }
      for (const Shard& shard : impl_->shards) {
        if (slot_index < shard.capacity) {
          total += shard.slot(slot_index).load(std::memory_order_relaxed);
        }
      }
      return total;
    };

    if (ins.kind == MetricKind::kHistogram) {
      const std::size_t buckets = ins.bounds.size() + 1;
      sample.bucket_counts.resize(buckets);
      for (std::size_t b = 0; b < buckets; ++b) {
        sample.bucket_counts[b] = read(ins.offset + b);
      }
      sample.sum = read(ins.offset + buckets);
      sample.count = read(ins.offset + buckets + 1);
    } else {
      sample.value = read(ins.offset);
    }
    snap.samples.push_back(std::move(sample));
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name != b.name ? a.name < b.name : a.labels < b.labels;
            });
  return snap;
}

std::size_t MetricsRegistry::series_count() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->instruments.size();
}

// --- MetricsSnapshot --------------------------------------------------------

const MetricSample* MetricsSnapshot::find(std::string_view name,
                                          const Labels& labels) const {
  const Labels want = sorted(labels);
  for (const MetricSample& s : samples) {
    if (s.name == name && (want.empty() || s.labels == want)) return &s;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(std::string_view name, double fallback,
                                 const Labels& labels) const {
  const MetricSample* s = find(name, labels);
  return s != nullptr ? s->value : fallback;
}

}  // namespace cebis::obs
