#ifndef CEBIS_NET_HTTP_METRICS_H
#define CEBIS_NET_HTTP_METRICS_H

// A deliberately tiny HTTP/1.1 endpoint serving GET /metrics as
// Prometheus text (io/metrics_export.h) from an obs::MetricsRegistry
// snapshot. One request per connection (Connection: close), no
// keep-alive, no TLS, loopback only - enough for a scraper or curl,
// nothing more. Any other path is 404, any other method 405; a request
// that fails to arrive within the timeout is dropped.

#include <cstdint>
#include <memory>

namespace cebis::obs {
class MetricsRegistry;
}

namespace cebis::net {

struct HttpMetricsOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral
  /// Snapshot source; null serves an empty exposition (still 200, so a
  /// scrape of an uninstrumented server succeeds vacuously).
  const obs::MetricsRegistry* registry = nullptr;
};

class HttpMetricsServer {
 public:
  /// Binds and starts the serving thread.
  explicit HttpMetricsServer(HttpMetricsOptions options);
  ~HttpMetricsServer();

  HttpMetricsServer(const HttpMetricsServer&) = delete;
  HttpMetricsServer& operator=(const HttpMetricsServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Wakes and joins the serving thread (after the request in hand, if
  /// any). Idempotent and safe to call from two threads.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cebis::net

#endif  // CEBIS_NET_HTTP_METRICS_H
