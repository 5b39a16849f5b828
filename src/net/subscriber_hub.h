#ifndef CEBIS_NET_SUBSCRIBER_HUB_H
#define CEBIS_NET_SUBSCRIBER_HUB_H

// Fan-out of the server's per-step frames to N streaming subscribers.
//
// The tick loop must never block on a subscriber: publish() frames
// the payload once (not at all when nobody subscribes) and appends a
// shared reference to each subscriber's BOUNDED queue under a
// per-subscriber mutex held only for the queue operation. A full queue drops its OLDEST frame (the subscriber is
// behind; the newest state is worth more than a complete history) and
// bumps the dropped-frames counter. A dedicated writer thread per
// subscriber drains the queue to the socket; a write error or timeout
// marks the subscriber dead and publish() reaps it - a killed or
// wedged client costs the loop one queue append, nothing more.
// tests/test_net.cpp pins both properties (slow-subscriber drop
// policy, 0-vs-8-subscriber decision identity).

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/taps.h"

namespace cebis::net {

struct SubscriberHubOptions {
  std::uint16_t port = 0;  ///< 0 = ephemeral (see Listener)
  /// Frames a subscriber may fall behind before drop-oldest engages.
  std::size_t queue_capacity = 256;
  /// Deadline for one socket write; a slower subscriber is dead.
  int write_timeout_ms = 2000;
  obs::Taps taps;
};

class SubscriberHub {
 public:
  /// Binds the listener and starts the acceptor thread.
  explicit SubscriberHub(SubscriberHubOptions options);
  ~SubscriberHub();

  SubscriberHub(const SubscriberHub&) = delete;
  SubscriberHub& operator=(const SubscriberHub&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Enqueues one frame (framed once, shared) to every live subscriber.
  /// With no subscriber it frames nothing and allocates nothing. Never
  /// blocks on the network.
  void publish(std::uint8_t type, std::span<const std::uint8_t> payload);

  /// Waits up to `timeout_ms` for every live subscriber's queue to
  /// drain (so a final frame reaches well-behaved clients before
  /// stop()); returns false on timeout.
  bool drain(int timeout_ms);

  /// Shuts down the listener, joins the acceptor and every writer.
  /// Queued frames of live subscribers are abandoned (call drain() first
  /// when they matter). Idempotent and safe to call from two threads.
  void stop();

  [[nodiscard]] std::size_t subscriber_count() const;
  [[nodiscard]] std::int64_t total_connected() const;
  [[nodiscard]] std::int64_t dropped_frames() const;

 private:
  struct Subscriber;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cebis::net

#endif  // CEBIS_NET_SUBSCRIBER_HUB_H
