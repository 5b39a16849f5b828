#ifndef CEBIS_BASE_PARALLEL_H
#define CEBIS_BASE_PARALLEL_H

// A minimal fork-join worker pool for independent tasks.
//
// parallel_for_index executes fn(0..n-1) across `threads` workers (the
// calling thread included) pulling indices from one atomic counter, so
// scheduling never affects *what* a task computes, only *when* -
// results keyed by index are byte-identical to a serial loop. Every
// worker joins before the call returns; no thread outlives it.
//
// Three callers: run_scenarios' run phase (each sweep cell reads
// immutable inputs and writes its own result slot, after a serial plan
// phase that touches every lazily materialized input), and the two
// input generators, MarketSimulator::generate (one task per market RTO)
// and TraceGenerator::generate (one task per block of states and per
// world region).
// The generators build every task's state on the calling thread, so
// their workers allocate nothing.
//
// Exception contract: a throwing index stops the distribution of
// not-yet-claimed indices (tasks already in flight complete), and after
// all workers join, the exception of the lowest throwing index is
// rethrown. With a single faulty task this is fully deterministic;
// other tasks' slots are either completely written or untouched, never
// partially so (fn owns the slot for the whole call).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <thread>
#include <vector>

namespace cebis {

/// Per-worker execution accounting for one parallel_for_index call
/// (observability only - collecting it never changes scheduling).
/// Worker 0 is the calling thread. Idle time for a worker is
/// wall_ms - busy_ms[w]: the time it spent waiting on the tail of the
/// fan-out after its last claimed index (sweep skew).
struct WorkerStats {
  std::vector<std::int64_t> cells;  ///< indices claimed, per worker
  std::vector<double> busy_ms;      ///< time inside fn, per worker
  double wall_ms = 0.0;             ///< the whole call, first fork to last join
};

/// The pool width "auto" resolves to: hardware_concurrency, with the
/// 0-means-unknown escape hatch clamped to 1.
[[nodiscard]] inline int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Runs fn(i) for every i in [0, n) on up to `threads` workers (the
/// calling thread is one of them; at threads <= 1 it is the only one,
/// so indices run in order on the calling thread). fn must only touch
/// state owned by its index. Rethrows the lowest throwing index's exception
/// after all in-flight work has completed. `stats`, when given, reports
/// per-worker claimed-index counts and busy time (two clock reads per
/// index - skipped entirely when null, and never consulted for
/// scheduling, so results are identical either way).
template <typename Fn>
void parallel_for_index(std::int64_t n, int threads, Fn&& fn,
                        WorkerStats* stats = nullptr) {
  // cebis-lint: allow(wall-clock) feeds only WorkerStats busy/idle telemetry, never scheduling
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0)
        .count();
  };
  if (n <= 0) {
    if (stats != nullptr) *stats = WorkerStats{};
    return;
  }
  threads = std::clamp<std::int64_t>(threads, 1, n);
  if (stats != nullptr) {
    stats->cells.assign(static_cast<std::size_t>(threads), 0);
    stats->busy_ms.assign(static_cast<std::size_t>(threads), 0.0);
  }
  const clock::time_point wall0 = clock::now();
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  const auto worker = [&](int w) noexcept {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      const clock::time_point t0 =
          stats != nullptr ? clock::now() : clock::time_point{};
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
        stop.store(true, std::memory_order_relaxed);
      }
      if (stats != nullptr) {
        // Each worker owns its own slots; the join below publishes them.
        ++stats->cells[static_cast<std::size_t>(w)];
        stats->busy_ms[static_cast<std::size_t>(w)] += ms_since(t0);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads) - 1);
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();
  if (stats != nullptr) stats->wall_ms = ms_since(wall0);

  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace cebis

#endif  // CEBIS_BASE_PARALLEL_H
