#ifndef CEBIS_OBS_TRACE_H
#define CEBIS_OBS_TRACE_H

// RAII phase tracing emitting Chrome trace-event JSON.
//
// A Tracer collects complete ("ph":"X") events with microsecond
// timestamps relative to its construction; json()
// serializes them in the trace-event format chrome://tracing, Perfetto
// (ui.perfetto.dev) and speedscope all load directly. Instrumented
// phases: the sweep plan phase and each run-phase cell
// (core/experiment.cpp), engine begin/finish and - because a span per
// 5-minute step is only affordable when explicitly asked for - each
// engine step (core/simulation.cpp), live tick ingest and advance
// (service/live_engine.cpp), and event-log write/read frames
// (service/event_log.cpp).
//
// Tracing is strictly opt-in: every call site holds a Tracer* that
// defaults to nullptr - a null obs::Taps::tracer is the one way to
// switch tracing off - and maybe_span() compiles to a null check when
// no tracer is attached. The metrics-only overhead contract
// (bench_perf_obs, < 2%) is measured WITHOUT a tracer, since span
// timestamps inherently cost two clock reads each. Like metrics,
// spans are write-only observation: nothing reads them back, so traced
// runs stay byte-identical (tests/test_obs.cpp).
//
// Threads: record() locks; concurrent spans from sweep workers are
// serialized at end() only (begin timestamps are taken lock-free).
// Each OS thread gets a small stable "tid" in arrival order.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cebis::obs {

class Tracer {
 public:
  /// Key/value annotations attached to an event ("args" in the JSON).
  using Args = std::vector<std::pair<std::string, std::string>>;

  Tracer();
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// An in-flight span; records a complete event over its lifetime (or
  /// until end()). Default-constructed spans are inert.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { swap(other); }
    Span& operator=(Span&& other) noexcept {
      if (this != &other) {
        end();
        swap(other);
      }
      return *this;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    /// Closes the span now (idempotent; the destructor calls it).
    void end() noexcept;

    [[nodiscard]] bool live() const noexcept { return tracer_ != nullptr; }

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::string name, std::string cat, Args args,
         std::int64_t start_us) noexcept
        : tracer_(tracer),
          name_(std::move(name)),
          cat_(std::move(cat)),
          args_(std::move(args)),
          start_us_(start_us) {}
    void swap(Span& other) noexcept {
      std::swap(tracer_, other.tracer_);
      std::swap(name_, other.name_);
      std::swap(cat_, other.cat_);
      std::swap(args_, other.args_);
      std::swap(start_us_, other.start_us_);
    }

    Tracer* tracer_ = nullptr;
    std::string name_;
    std::string cat_;
    Args args_;
    std::int64_t start_us_ = 0;
  };

  /// Opens a span.
  [[nodiscard]] Span span(std::string_view name,
                          std::string_view category = "cebis", Args args = {});

  [[nodiscard]] std::size_t events() const;

  /// The collected events as a Chrome trace-event JSON document.
  [[nodiscard]] std::string json() const;

  /// json() to a file; throws std::runtime_error when it cannot write.
  void write(const std::string& path) const;

 private:
  friend class Span;
  void record(std::string name, std::string cat, Args args, std::int64_t ts_us,
              std::int64_t dur_us);
  [[nodiscard]] std::int64_t now_us() const noexcept;

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The call-site idiom: one branch when no tracer is attached.
[[nodiscard]] inline Tracer::Span maybe_span(Tracer* tracer,
                                             std::string_view name,
                                             std::string_view category =
                                                 "cebis",
                                             Tracer::Args args = {}) {
  if (tracer == nullptr) return Tracer::Span{};
  return tracer->span(name, category, std::move(args));
}

}  // namespace cebis::obs

#endif  // CEBIS_OBS_TRACE_H
