#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

// Benchmark-side tracing. The benchmark records a span around each of
// its own calls into a src/ module; nothing inside the program is
// instrumented. A span is named "<layer>.<call>", where the layer is
// the src/ module the call enters ("bench" marks the benchmark's own
// work: feed slicing, output checks, pacing waits). Spans carry their
// parent (the enclosing span on the same thread) and a request id (the
// sweep cell, or the step index in live/net), stay in memory in one log
// per thread, and are written once at exit as Chrome trace-event JSON.
//
// A span's self time is its duration minus the time its direct
// children cover. On one thread the self times of a section's spans
// add up to the time the section spent inside spans, which is what the
// ledger check compares against the section's wall time.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";        ///< static "<layer>.<call>" string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;     ///< index in the same log; -1 = root
  std::int64_t request = -1;    ///< sweep cell or step index; -1 = none
  std::int64_t child_ns = 0;    ///< time covered by direct children

  [[nodiscard]] std::int64_t total_ns() const { return end_ns - start_ns; }
  [[nodiscard]] std::int64_t self_ns() const { return total_ns() - child_ns; }
};

/// The spans one thread recorded. Not thread-safe: each thread that
/// records owns its own log.
class SpanLog {
 public:
  /// `reserve` spans are allocated up front, so recording does not
  /// reallocate (and copy the log) inside a measured span.
  SpanLog(int thread_id, std::size_t reserve) : thread_id_(thread_id) {
    spans_.reserve(reserve);
  }

  /// Opens a span as a child of the innermost open one; returns its index.
  int open(const char* name, std::int64_t request);
  /// Closes the innermost open span (which must be `index`).
  void close(int index);
  /// Records a finished span, timed by the caller, as a child of the
  /// innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t request);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] int thread_id() const { return thread_id_; }

 private:
  int thread_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; inert when `log` is null (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t request = -1)
      : log_(log), index_(log != nullptr ? log->open(name, request) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

/// Per-name samples (ns) gathered from one or more logs.
struct SpanStats {
  std::vector<double> total_ns;
  std::vector<double> self_ns;
};

/// Adds spans [first, last) of `log` to `out`, grouped by name.
void collect_into(std::map<std::string, SpanStats>& out, const SpanLog& log,
                  std::size_t first, std::size_t last);

/// Sum of the self times of spans [first, last) of `log`: the part of a
/// section's wall time that some layer or the benchmark accounts for.
[[nodiscard]] std::int64_t covered_ns(const SpanLog& log, std::size_t first,
                                      std::size_t last);

/// The wall time one span costs outside itself (the clock read and
/// bookkeeping between one span's end and the next one's start), from a
/// run of empty spans. The ledger counts it as the benchmark's own time.
[[nodiscard]] double recorder_gap_ns();

/// A run of spans [first, last) of one log.
struct SpanRange {
  const SpanLog* log = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Writes the spans of `ranges` as Chrome trace-event JSON ("X" events,
/// microsecond timestamps relative to the earliest span). Returns false
/// when the file cannot be written.
bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRange>& ranges);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H
