#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace perfbench {

int SpanLog::open(const char* name, std::int64_t request) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0,
                        open_.empty() ? -1 : open_.back(), request, 0});
  open_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanLog: spans must close innermost first");
  }
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  if (span.parent >= 0) {
    spans_[static_cast<std::size_t>(span.parent)].child_ns += span.total_ns();
  }
}

void SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t request) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, 0});
  if (parent >= 0) {
    spans_[static_cast<std::size_t>(parent)].child_ns += end_ns - start_ns;
  }
}

void collect_into(std::map<std::string, SpanStats>& out, const SpanLog& log,
                  std::size_t first, std::size_t last) {
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = first; i < last && i < spans.size(); ++i) {
    SpanStats& stats = out[spans[i].name];
    stats.total_ns.push_back(static_cast<double>(spans[i].total_ns()));
    stats.self_ns.push_back(static_cast<double>(spans[i].self_ns()));
  }
}

std::int64_t covered_ns(const SpanLog& log, std::size_t first,
                        std::size_t last) {
  std::int64_t sum = 0;
  const std::vector<Span>& spans = log.spans();
  for (std::size_t i = first; i < last && i < spans.size(); ++i) {
    sum += spans[i].self_ns();
  }
  return sum;
}

double recorder_gap_ns() {
  constexpr int kSpans = 20000;
  std::vector<double> per_span;
  for (int rep = 0; rep < 5; ++rep) {
    SpanLog log(0, kSpans);
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      const Scope scope(&log, "calibration", i);
    }
    const std::int64_t wall = now_ns() - t0;
    per_span.push_back(static_cast<double>(wall - covered_ns(log, 0, kSpans)) /
                       kSpans);
  }
  std::sort(per_span.begin(), per_span.end());
  return per_span[per_span.size() / 2];
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<SpanRange>& ranges) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t epoch = std::numeric_limits<std::int64_t>::max();
  for (const SpanRange& r : ranges) {
    for (std::size_t i = r.first; i < r.last; ++i) {
      epoch = std::min(epoch, r.log->spans()[i].start_ns);
    }
  }
  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  for (const SpanRange& r : ranges) {
    const SpanLog* log = r.log;
    for (std::size_t i = r.first; i < r.last; ++i) {
      const Span& span = log->spans()[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%lld,"
                   "\"parent\":%d}}",
                   first ? "" : ",", span.name, log->thread_id(),
                   static_cast<double>(span.start_ns - epoch) / 1e3,
                   static_cast<double>(span.total_ns()) / 1e3,
                   static_cast<long long>(span.request), span.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
