#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace cebis::obs {

namespace {

/// Minimal JSON string escaping (names/categories/args are internal
/// identifiers, but a backslash or quote must not corrupt the trace).
std::string escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

struct Tracer::Impl {
  struct Event {
    std::string name;
    std::string cat;
    Args args;
    std::int64_t ts_us = 0;
    std::int64_t dur_us = 0;
    int tid = 0;
  };

  mutable std::mutex mu;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::vector<Event> events;
  std::map<std::thread::id, int> tids;

  int tid_locked() {
    const std::thread::id id = std::this_thread::get_id();
    const auto it = tids.find(id);
    if (it != tids.end()) return it->second;
    const int tid = static_cast<int>(tids.size()) + 1;
    tids.emplace(id, tid);
    return tid;
  }
};

Tracer::Tracer() : impl_(std::make_unique<Impl>()) {}

Tracer::~Tracer() = default;

std::int64_t Tracer::now_us() const noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - impl_->epoch)
      .count();
}

Tracer::Span Tracer::span(std::string_view name, std::string_view category,
                          Args args) {
  return Span{this, std::string(name), std::string(category), std::move(args),
              now_us()};
}

void Tracer::Span::end() noexcept {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  try {
    tracer->record(std::move(name_), std::move(cat_), std::move(args_),
                   start_us_, tracer->now_us() - start_us_);
  } catch (...) {
    // Dropping a trace event on allocation failure is the only safe
    // move in a noexcept destructor path.
  }
}

void Tracer::record(std::string name, std::string cat, Args args,
                    std::int64_t ts_us, std::int64_t dur_us) {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  Impl::Event event;
  event.name = std::move(name);
  event.cat = std::move(cat);
  event.args = std::move(args);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = impl_->tid_locked();
  impl_->events.push_back(std::move(event));
}

std::size_t Tracer::events() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->events.size();
}

std::string Tracer::json() const {
  const std::lock_guard<std::mutex> lock(impl_->mu);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Impl::Event& e : impl_->events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"" + escaped(e.name) + "\",\"cat\":\"" +
           escaped(e.cat) + "\",\"ph\":\"X\",\"ts\":" +
           std::to_string(e.ts_us) + ",\"dur\":" + std::to_string(e.dur_us) +
           ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += '"';
        out += escaped(k);
        out += "\":\"";
        out += escaped(v);
        out += '"';
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("Tracer::write: cannot open '" + path + "'");
  }
  out << json();
  if (!out) {
    throw std::runtime_error("Tracer::write: write to '" + path + "' failed");
  }
}

}  // namespace cebis::obs
