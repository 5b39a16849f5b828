#include "io/metrics_export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string_view>

namespace cebis::io {

namespace {

using obs::Labels;
using obs::MetricKind;
using obs::MetricSample;

/// Exact-enough value rendering: integral values (every counter and
/// bucket count) print without a fraction; everything else round-trips
/// through %.17g.
std::string metric_value(double v) {
  if (!std::isfinite(v)) {
    return std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf");
  }
  if (v == std::rint(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Prometheus label-value escaping (backslash, quote, newline).
std::string prom_escaped(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `{k="v",...}` - with `extra` appended last (the histogram `le`
/// label); empty when there is nothing to render.
std::string label_block(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + prom_escaped(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ',';
    out += extra;
  }
  out += '}';
  return out;
}

std::string_view type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string to_prometheus_text(const obs::MetricsSnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const MetricSample& s : snap.samples) {
    if (s.name != last_name) {
      // One HELP/TYPE header per family; the snapshot is name-sorted,
      // so a family's series are contiguous.
      last_name = s.name;
      if (!s.help.empty()) {
        out += "# HELP " + s.name + " " + s.help + "\n";
      }
      out += "# TYPE " + s.name + " " + std::string(type_name(s.kind)) + "\n";
    }
    if (s.kind == MetricKind::kHistogram) {
      // Prometheus buckets are CUMULATIVE counts per `le` bound, ending
      // with the mandatory le="+Inf" bucket equal to _count.
      double cum = 0.0;
      for (std::size_t b = 0; b < s.bucket_counts.size(); ++b) {
        cum += s.bucket_counts[b];
        const std::string le =
            b < s.bounds.size() ? metric_value(s.bounds[b]) : "+Inf";
        out += s.name + "_bucket" +
               label_block(s.labels, "le=\"" + le + "\"") + " " +
               metric_value(cum) + "\n";
      }
      out += s.name + "_sum" + label_block(s.labels) + " " +
             metric_value(s.sum) + "\n";
      out += s.name + "_count" + label_block(s.labels) + " " +
             metric_value(s.count) + "\n";
    } else {
      out += s.name + label_block(s.labels) + " " + metric_value(s.value) +
             "\n";
    }
  }
  return out;
}

void write_prometheus_file(const obs::MetricsSnapshot& snap,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("write_prometheus_file: cannot open '" + path +
                             "'");
  }
  out << to_prometheus_text(snap);
  if (!out) {
    throw std::runtime_error("write_prometheus_file: write to '" + path +
                             "' failed");
  }
}

}  // namespace cebis::io
