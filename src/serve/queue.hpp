// Bounded request queue with admission control — the serving layer's
// backpressure primitive.
//
// The queue is the only place requests wait: producers (transports) push
// from any thread, the service's single dispatcher pops. Admission is
// reject-on-full with a typed result — a full queue NEVER blocks the
// producer and NEVER silently drops; the caller turns kFull into a
// ResponseStatus::kRejectedQueueFull response immediately. Deadlines are
// stamped at admission and checked again at dequeue, so a request that
// aged out while queued is answered without wasting a solve on it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace netmon::serve {

/// The serving layer's clock. Monotonic: deadlines survive wall-clock
/// adjustments.
using ServeClock = std::chrono::steady_clock;

/// A request parked in the queue, with its completion channel and the
/// admission-time stamps the deadline/latency accounting needs.
struct QueuedRequest {
  Request request;
  /// Completion channel: invoked exactly once with the typed Response
  /// (serve::ResponseCallback contract).
  ResponseCallback done;
  /// Opaque lifetime pin held until after `done` runs. The tenant layer
  /// parks the RCU model snapshot the request resolves against here, so
  /// a registry swap can never retire the model under an in-flight
  /// solve; the serve layer itself stays tenant-agnostic.
  std::shared_ptr<const void> context;
  ServeClock::time_point enqueued_at{};
  /// Absolute deadline (admission time + Request::deadline_ms);
  /// time_point::max() when the request has none.
  ServeClock::time_point deadline = ServeClock::time_point::max();
};

/// Outcome of an admission attempt.
enum class PushResult : std::uint8_t {
  kOk = 0,
  /// The queue is at capacity (backpressure — reject, don't block).
  kFull = 1,
  /// The queue was closed (server shutting down).
  kClosed = 2,
};

/// Mutex-protected bounded MPSC queue.
class RequestQueue {
 public:
  /// `capacity` >= 1: the maximum number of parked requests.
  explicit RequestQueue(std::size_t capacity);

  /// Admits `item` unless the queue is full or closed. Never blocks.
  /// Moves from `item` only on kOk — on rejection the caller still holds
  /// the completion callback and must answer it with a typed response.
  PushResult try_push(QueuedRequest& item);

  /// As try_push, but on admission invokes `on_admit(depth)` while still
  /// holding the queue lock. Admission records (stats, flight-recorder
  /// events) issued from the hook are therefore ordered strictly before
  /// anything the dispatcher does with the request — without the hook,
  /// the dispatcher can dequeue and record before the producer gets to
  /// its own admit record. Keep the hook cheap: it runs under the lock.
  template <typename OnAdmit>
  PushResult try_push(QueuedRequest& item, OnAdmit&& on_admit) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(item));
      on_admit(items_.size());
    }
    cv_.notify_one();
    return PushResult::kOk;
  }

  /// Pops into `out`, waiting until an item arrives, `until` passes, or
  /// the queue is closed. Returns false on timeout or closed-and-empty.
  bool pop_until(QueuedRequest& out, ServeClock::time_point until);

  /// Non-blocking pop. Returns false when empty.
  bool try_pop(QueuedRequest& out);

  /// Closes the queue: subsequent pushes return kClosed, blocked pops
  /// wake up. Idempotent.
  void close();

  /// Removes and returns everything still parked (shutdown path: the
  /// caller answers each with a typed kShutdown response).
  std::vector<QueuedRequest> drain();

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  bool closed() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueuedRequest> items_;
  const std::size_t capacity_;
  bool closed_ = false;
};

}  // namespace netmon::serve
