#ifndef CEBIS_NET_SOCKET_H
#define CEBIS_NET_SOCKET_H

// Minimal RAII wrappers over POSIX TCP sockets - the only transport
// dependency the net layer has (no third-party networking). Blocking
// I/O with poll()-based deadlines: every read and write takes an
// explicit timeout so a stalled peer surfaces as TimeoutError instead
// of a wedged thread. accept() blocks with no deadline; another thread
// ends the wait with Listener::shutdown(), so a server loop is just
// `while (auto sock = listener.accept())`.
//
// Listeners bind loopback (127.0.0.1) only: the service is an
// intra-host pipeline (feeder, server, subscribers, scrapers on one
// box); nothing here authenticates, so nothing here listens publicly.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace cebis::net {

/// Any socket-layer failure (connect refused, reset, short write, ...).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A deadline expired before the peer produced / accepted bytes.
class TimeoutError : public NetError {
 public:
  using NetError::NetError;
};

/// Owns one connected stream socket. Move-only; the destructor closes.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (already connected).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  void close() noexcept;

  /// Reads 1..`size` bytes, waiting at most `timeout_ms` for the first
  /// byte. Returns 0 on orderly peer close. Throws TimeoutError on
  /// deadline, NetError on socket failure or a closed/invalid handle.
  std::size_t read_some(void* data, std::size_t size, int timeout_ms);

  /// Reads exactly `size` bytes. Returns false when the peer closed
  /// before the FIRST byte (orderly end-of-stream at a boundary);
  /// throws NetError when the stream ends mid-buffer, TimeoutError when
  /// any chunk misses the deadline.
  bool read_exact(void* data, std::size_t size, int timeout_ms);

  /// Writes all `size` bytes, waiting at most `timeout_ms` for the
  /// kernel to accept each chunk. Throws TimeoutError / NetError.
  void write_all(const void* data, std::size_t size, int timeout_ms);

 private:
  int fd_ = -1;
};

/// A loopback TCP listener. Port 0 binds an ephemeral port; port()
/// reports the resolved one (how tests avoid fixed-port collisions).
///
/// Only the constructor and the destructor write the descriptor, so
/// accept() on one thread and shutdown() on another never race. The
/// owner joins its accepting thread before destroying the listener.
class Listener {
 public:
  explicit Listener(std::uint16_t port);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Blocks until a connection arrives. nullopt once shutdown() has been
  /// called (before or during the wait), or when the kernel refuses the
  /// accept (e.g. out of descriptors): either way the accept loop ends.
  [[nodiscard]] std::optional<Socket> accept() noexcept;

  /// Stops listening: a blocked accept() wakes with nullopt, every later
  /// one returns nullopt at once, and new connects are refused. Safe to
  /// call from any thread, any number of times.
  void shutdown() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Connects to `host`:`port` within `timeout_ms`. Throws TimeoutError /
/// NetError (a refused connection is NetError - callers decide whether
/// to back off and retry, see FeedClient).
[[nodiscard]] Socket connect_to(const std::string& host, std::uint16_t port,
                                int timeout_ms);

}  // namespace cebis::net

#endif  // CEBIS_NET_SOCKET_H
