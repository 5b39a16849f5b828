#include "net/http_metrics.h"

#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "io/metrics_export.h"
#include "net/socket.h"
#include "obs/metrics.h"

namespace cebis::net {

namespace {

constexpr std::size_t kMaxRequestBytes = 8192;
/// Deadlines for a scraper to send its request and to take the reply.
constexpr int kReadTimeoutMs = 2000;
constexpr int kWriteTimeoutMs = 2000;

std::string response(int code, const char* reason, const std::string& body,
                     const char* content_type) {
  std::string out = "HTTP/1.1 " + std::to_string(code) + " " + reason + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

struct HttpMetricsServer::Impl {
  HttpMetricsOptions options;
  Listener listener;
  std::atomic<bool> stopping{false};  // stop() runs once
  std::thread server;

  explicit Impl(HttpMetricsOptions opts)
      : options(std::move(opts)), listener(options.port) {}

  void handle(Socket& sock) {
    // Read until the blank line ending the request head (we ignore any
    // body - GET has none) or give up at the size/time limits.
    std::string request;
    while (request.find("\r\n\r\n") == std::string::npos) {
      if (request.size() >= kMaxRequestBytes) return;
      char buf[1024];
      std::size_t n = 0;
      try {
        n = sock.read_some(buf, sizeof(buf), kReadTimeoutMs);
      } catch (const NetError&) {
        return;
      }
      if (n == 0) return;  // peer closed before a full request
      request.append(buf, n);
    }
    const std::size_t line_end = request.find("\r\n");
    const std::string line = request.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) return;
    const std::string method = line.substr(0, sp1);
    const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);

    std::string reply;
    if (method != "GET") {
      reply = response(405, "Method Not Allowed", "method not allowed\n",
                       "text/plain");
    } else if (path != "/metrics") {
      reply = response(404, "Not Found", "try /metrics\n", "text/plain");
    } else {
      std::string body;
      if (options.registry != nullptr) {
        // cebis-lint: allow(obs-read-back) exposition endpoint: the read IS the product, nothing steers on it
        body = io::to_prometheus_text(options.registry->snapshot());
      }
      reply = response(200, "OK", body,
                       "text/plain; version=0.0.4; charset=utf-8");
    }
    try {
      sock.write_all(reply.data(), reply.size(), kWriteTimeoutMs);
    } catch (const NetError&) {
      // The scraper vanished mid-response; nothing to clean up.
    }
  }

  void serve_loop() {
    while (std::optional<Socket> sock = listener.accept()) handle(*sock);
  }
};

HttpMetricsServer::HttpMetricsServer(HttpMetricsOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->server = std::thread([im = impl_.get()] { im->serve_loop(); });
}

HttpMetricsServer::~HttpMetricsServer() { stop(); }

std::uint16_t HttpMetricsServer::port() const noexcept {
  return impl_->listener.port();
}

void HttpMetricsServer::stop() {
  if (!impl_ || impl_->stopping.exchange(true)) return;
  impl_->listener.shutdown();
  if (impl_->server.joinable()) impl_->server.join();
}

}  // namespace cebis::net
