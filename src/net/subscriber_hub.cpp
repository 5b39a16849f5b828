#include "net/subscriber_hub.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <thread>
#include <utility>

#include "net/wire.h"

namespace cebis::net {

/// Deadline for a new subscriber's stream header after connect.
constexpr int kHandshakeTimeoutMs = 2000;

struct SubscriberHub::Subscriber {
  Socket sock;
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::shared_ptr<const std::vector<std::uint8_t>>> queue;
  bool dead = false;      // writer failed or hub stopping
  std::int64_t dropped = 0;
  std::thread writer;
};

struct SubscriberHub::Impl {
  SubscriberHubOptions options;
  Listener listener;
  std::atomic<bool> stopping{false};  // stop() runs once

  mutable std::mutex mutex;  // guards `subscribers` (the list, not the queues)
  std::vector<std::unique_ptr<Subscriber>> subscribers;
  std::int64_t total_connected = 0;
  std::int64_t dropped_total = 0;  // from reaped subscribers

  obs::Gauge g_subscribers;
  obs::Counter m_connected;
  obs::Counter m_dropped;
  obs::Counter m_published;

  std::thread acceptor;

  explicit Impl(SubscriberHubOptions opts)
      : options(std::move(opts)), listener(options.port) {
    if (options.queue_capacity == 0) {
      throw std::invalid_argument("SubscriberHub: queue_capacity must be > 0");
    }
    if (options.taps.metrics != nullptr) {
      obs::MetricsRegistry& reg = *options.taps.metrics;
      g_subscribers = reg.gauge("cebis_net_subscribers",
                                "Live subscriber connections");
      m_connected = reg.counter("cebis_net_subscribers_connected_total",
                                "Subscriber connections accepted");
      m_dropped = reg.counter(
          "cebis_net_subscriber_dropped_frames_total",
          "Frames dropped (oldest-first) because a subscriber's bounded "
          "queue was full - the tick loop never blocks on a slow client");
      m_published = reg.counter("cebis_net_frames_published_total",
                                "Frames enqueued to subscribers (one per "
                                "frame per live subscriber)");
    }
  }

  void writer_loop(Subscriber& sub) {
    for (;;) {
      std::shared_ptr<const std::vector<std::uint8_t>> frame;
      {
        std::unique_lock<std::mutex> lock(sub.mutex);
        sub.cv.wait(lock, [&] { return sub.dead || !sub.queue.empty(); });
        if (sub.queue.empty()) return;  // dead with nothing left to send
        frame = std::move(sub.queue.front());
        sub.queue.pop_front();
        if (sub.queue.empty()) sub.cv.notify_all();  // wake drain()
      }
      try {
        sub.sock.write_all(frame->data(), frame->size(),
                           options.write_timeout_ms);
      } catch (const NetError&) {
        std::lock_guard<std::mutex> lock(sub.mutex);
        sub.dead = true;
        sub.queue.clear();
        sub.cv.notify_all();
        return;
      }
    }
  }

  void accept_loop() {
    while (std::optional<Socket> sock = listener.accept()) {
      try {
        const Channel channel = read_stream_header(*sock, kHandshakeTimeoutMs);
        if (channel != Channel::kSubscribe) continue;  // drop the connection
      } catch (const NetError&) {
        continue;
      } catch (const WireError&) {
        continue;
      }
      auto sub = std::make_unique<Subscriber>();
      sub->sock = std::move(*sock);
      Subscriber& ref = *sub;
      ref.writer = std::thread([this, &ref] { writer_loop(ref); });
      {
        std::lock_guard<std::mutex> lock(mutex);
        subscribers.push_back(std::move(sub));
        ++total_connected;
        m_connected.add();
        if (g_subscribers.live()) {
          g_subscribers.set(static_cast<double>(subscribers.size()));
        }
      }
    }
  }

  /// Joins and removes dead subscribers; call with `mutex` NOT held.
  void reap() {
    std::vector<std::unique_ptr<Subscriber>> dead;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (auto it = subscribers.begin(); it != subscribers.end();) {
        bool is_dead = false;
        {
          std::lock_guard<std::mutex> sl((*it)->mutex);
          is_dead = (*it)->dead;
        }
        if (is_dead) {
          dropped_total += (*it)->dropped;
          dead.push_back(std::move(*it));
          it = subscribers.erase(it);
        } else {
          ++it;
        }
      }
      if (g_subscribers.live()) {
        g_subscribers.set(static_cast<double>(subscribers.size()));
      }
    }
    for (auto& sub : dead) {
      if (sub->writer.joinable()) sub->writer.join();
    }
  }
};

SubscriberHub::SubscriberHub(SubscriberHubOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {
  impl_->acceptor = std::thread([im = impl_.get()] { im->accept_loop(); });
}

SubscriberHub::~SubscriberHub() { stop(); }

std::uint16_t SubscriberHub::port() const noexcept {
  return impl_->listener.port();
}

void SubscriberHub::publish(std::uint8_t type,
                            std::span<const std::uint8_t> payload) {
  bool any_dead = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->subscribers.empty()) return;  // nobody to frame it for
    auto frame = std::make_shared<std::vector<std::uint8_t>>();
    service::append_frame(*frame, type, payload);
    const std::shared_ptr<const std::vector<std::uint8_t>> shared =
        std::move(frame);
    for (const std::unique_ptr<Subscriber>& sub : impl_->subscribers) {
      std::lock_guard<std::mutex> sl(sub->mutex);
      if (sub->dead) {
        any_dead = true;
        continue;
      }
      if (sub->queue.size() >= impl_->options.queue_capacity) {
        sub->queue.pop_front();  // drop-oldest: newest state wins
        ++sub->dropped;
        impl_->m_dropped.add();
      }
      sub->queue.push_back(shared);
      impl_->m_published.add();
      sub->cv.notify_one();
    }
  }
  if (any_dead) impl_->reap();
}

bool SubscriberHub::drain(int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<Subscriber*> subs;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    // Raw pointers stay valid: subscribers are only removed by reap(),
    // and nothing here calls it.
    for (const auto& sub : impl_->subscribers) subs.push_back(sub.get());
  }
  bool drained = true;
  for (Subscriber* sub : subs) {
    std::unique_lock<std::mutex> sl(sub->mutex);
    if (!sub->cv.wait_until(sl, deadline,
                            [&] { return sub->dead || sub->queue.empty(); })) {
      drained = false;
    }
  }
  return drained;
}

void SubscriberHub::stop() {
  if (!impl_ || impl_->stopping.exchange(true)) return;
  impl_->listener.shutdown();
  if (impl_->acceptor.joinable()) impl_->acceptor.join();
  std::vector<std::unique_ptr<Subscriber>> subs;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    subs.swap(impl_->subscribers);
    // Only publish() drops frames, and it can no longer reach these
    // subscribers: their counts are final, and dropped_frames() sees
    // them move from the list to the total in one step.
    for (const auto& sub : subs) impl_->dropped_total += sub->dropped;
  }
  for (auto& sub : subs) {
    {
      std::lock_guard<std::mutex> sl(sub->mutex);
      sub->dead = true;
      sub->queue.clear();
      sub->cv.notify_all();
    }
    if (sub->writer.joinable()) sub->writer.join();
  }
  if (impl_->g_subscribers.live()) impl_->g_subscribers.set(0.0);
}

std::size_t SubscriberHub::subscriber_count() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->subscribers.size();
}

std::int64_t SubscriberHub::total_connected() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->total_connected;
}

std::int64_t SubscriberHub::dropped_frames() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  std::int64_t total = impl_->dropped_total;
  for (const auto& sub : impl_->subscribers) {
    std::lock_guard<std::mutex> sl(sub->mutex);
    total += sub->dropped;
  }
  return total;
}

}  // namespace cebis::net
