#ifndef CEBIS_OBS_METRICS_H
#define CEBIS_OBS_METRICS_H

// Labeled metrics for every execution surface (batch sweeps, the live
// service mode, replay): counter / gauge / histogram families keyed by
// (name, labels), owned by a MetricsRegistry.
//
// Design constraints, in order:
//
//  1. Observation must never perturb results. Handles are write-only
//     taps - nothing in src/ reads a metric back into a decision - so
//     every determinism contract (parallel-sweep, replay-equals-live,
//     golden anchors) holds byte-for-byte with metrics present or
//     absent (guarded in tests/test_obs.cpp).
//
//  2. The sweep fan-out must stay contention-free and TSan-clean.
//     Counter and histogram slots are sharded per thread: creating a
//     handle binds it to the calling thread's shard (created under the
//     registry mutex), and updates are a relaxed atomic load + store on
//     that private slot - no lock, no shared cache line. snapshot()
//     merges the shards under the mutex. The intended discipline is one
//     handle per thread (each worker resolves its own handles, as the
//     engine does at Session begin); a handle shared across threads can
//     lose increments but is never undefined behavior.
//
//  3. Off must cost near-nothing. A null obs::Taps::metrics is the one
//     way to switch metrics off: instrumented code then keeps
//     default-constructed handles, whose update is one branch on a
//     null pointer.
//
// Gauges are the exception to per-thread sharding: summing a
// last-written-value across shards would be meaningless, so every gauge
// handle aliases one registry-global slot (atomic store, last writer
// wins).
//
// Histogram buckets follow stats/histogram.h's fixed-bin convention:
// linear_bounds(lo, hi, bin_width) reproduces a stats::Histogram's bin
// edges as Prometheus-style cumulative `le` upper bounds (underflow
// lands in the first bucket, overflow in the implicit +Inf bucket).
//
// Handles borrow the registry: they hold raw slot pointers into
// registry-owned storage, so the registry must outlive every handle
// (shards are never freed while the registry lives, even after their
// thread exits - a dead worker's counts stay mergeable).

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cebis::obs {

/// Label set of one time-series, e.g. {{"router", "price-aware"}}.
/// Registries treat label sets as unordered (they are sorted by key at
/// registration).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One merged time-series in a snapshot (all shards folded together).
struct MetricSample {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;  ///< sorted by key

  double value = 0.0;  ///< counter / gauge

  // Histogram only: cumulative `le` upper bounds (excluding +Inf),
  // per-bucket counts (bounds.size() + 1 entries, last = +Inf bucket,
  // NON-cumulative), total sum and count of observations.
  std::vector<double> bounds;
  std::vector<double> bucket_counts;
  double sum = 0.0;
  double count = 0.0;
};

/// A point-in-time merge of every shard, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// The sample with this name (and labels, when given; label order is
  /// irrelevant), or nullptr.
  [[nodiscard]] const MetricSample* find(std::string_view name,
                                         const Labels& labels = {}) const;
  /// find()'s value (counter/gauge) or `fallback` when absent.
  [[nodiscard]] double value_or(std::string_view name, double fallback,
                                const Labels& labels = {}) const;
};

class MetricsRegistry;

/// Monotone counter tap. Default-constructed handles are inert: add()
/// is a single not-taken branch.
class Counter {
 public:
  Counter() = default;

  void add(double v = 1.0) noexcept {
    if (slot_ != nullptr) {
      slot_->store(slot_->load(std::memory_order_relaxed) + v,
                   std::memory_order_relaxed);
    }
  }

  /// True when the handle is bound to a registry slot.
  [[nodiscard]] bool live() const noexcept { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::atomic<double>* slot) noexcept : slot_(slot) {}
  std::atomic<double>* slot_ = nullptr;
};

/// Last-writer-wins gauge tap (one registry-global slot per series).
class Gauge {
 public:
  Gauge() = default;

  void set(double v) noexcept {
    if (slot_ != nullptr) slot_->store(v, std::memory_order_relaxed);
  }

  [[nodiscard]] bool live() const noexcept { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<double>* slot) noexcept : slot_(slot) {}
  std::atomic<double>* slot_ = nullptr;
};

/// Histogram tap: observe() is a branchless-ish bucket search plus three
/// relaxed slot updates on the owning thread's shard.
class Histogram {
 public:
  Histogram() = default;

  void observe(double v) noexcept {
    if (slots_ == nullptr) return;
    // Cumulative `le` semantics: the first bound >= v. Bucket sets are
    // small (tens of bounds); a linear scan beats binary search on the
    // branch predictor for the monotone streams we feed it.
    std::size_t b = 0;
    while (b < n_bounds_ && v > bounds_[b]) ++b;
    bump(slots_[b]);
    std::atomic<double>& sum = slots_[n_bounds_ + 1];
    sum.store(sum.load(std::memory_order_relaxed) + v,
              std::memory_order_relaxed);
    bump(slots_[n_bounds_ + 2]);
  }

  [[nodiscard]] bool live() const noexcept { return slots_ != nullptr; }

 private:
  friend class MetricsRegistry;
  Histogram(std::atomic<double>* slots, const double* bounds,
            std::size_t n_bounds) noexcept
      : slots_(slots), bounds_(bounds), n_bounds_(n_bounds) {}

  static void bump(std::atomic<double>& slot) noexcept {
    slot.store(slot.load(std::memory_order_relaxed) + 1.0,
               std::memory_order_relaxed);
  }

  // Slot layout: [bucket 0 .. bucket n_bounds (+Inf)] [sum] [count].
  std::atomic<double>* slots_ = nullptr;
  const double* bounds_ = nullptr;
  std::size_t n_bounds_ = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve a handle for (name, labels), registering the series on
  /// first use. The handle is bound to the CALLING thread's shard
  /// (gauges: the shared slot) - resolve once per thread, update
  /// lock-free. Throws std::invalid_argument when the name is already
  /// registered with a different kind, help or bucket bounds.
  [[nodiscard]] Counter counter(std::string_view name, std::string_view help,
                                Labels labels = {});
  [[nodiscard]] Gauge gauge(std::string_view name, std::string_view help,
                            Labels labels = {});
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    std::string_view help,
                                    std::span<const double> bounds,
                                    Labels labels = {});

  /// stats::Histogram(lo, hi, bin_width)'s bin edges as cumulative `le`
  /// upper bounds: lo + w, lo + 2w, ..., hi. Underflow merges into the
  /// first bucket, overflow into the implicit +Inf bucket.
  [[nodiscard]] static std::vector<double> linear_bounds(double lo, double hi,
                                                         double bin_width);

  /// Merges every shard into one consistent-enough view (concurrent
  /// updates may or may not be included; each slot is read atomically).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered series count (all kinds).
  // cebis-lint: allow(unreferenced-api) tests count registered series
  [[nodiscard]] std::size_t series_count() const;

 private:
  struct Instrument;
  struct Shard;

  const Instrument& intern(MetricKind kind, std::string_view name,
                           std::string_view help, Labels labels,
                           std::span<const double> bounds);
  Shard& shard_for_current_thread_locked();
  std::atomic<double>* slots_locked(Shard& shard, std::size_t offset,
                                    std::size_t count);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cebis::obs

#endif  // CEBIS_OBS_METRICS_H
