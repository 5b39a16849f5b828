#ifndef CEBIS_IO_METRICS_EXPORT_H
#define CEBIS_IO_METRICS_EXPORT_H

// Exposition of an obs::MetricsSnapshot in the Prometheus text format
// (https://prometheus.io/docs/instrumenting/exposition_formats/ - the
// scrape/textfile format, with # HELP/# TYPE headers and cumulative
// histogram _bucket{le=...}/_sum/_count series). net's /metrics
// endpoint serves it; cebis_serve writes it to a .prom file at session
// end, next to its trace; bench_perf_obs drops it as a CI artifact.

#include <string>

#include "obs/metrics.h"

namespace cebis::io {

/// The snapshot in the Prometheus text exposition format.
[[nodiscard]] std::string to_prometheus_text(const obs::MetricsSnapshot& snap);

/// to_prometheus_text written to `path` (truncating). Throws
/// std::runtime_error when the file cannot be written.
void write_prometheus_file(const obs::MetricsSnapshot& snap,
                           const std::string& path);

}  // namespace cebis::io

#endif  // CEBIS_IO_METRICS_EXPORT_H
