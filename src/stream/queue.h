// Bounded MPSC event queue with explicit backpressure policies — the
// buffer between producer threads and one shard's consumer.  It carries
// validated, packed LeafEvents (stream/event.h).
//
// Producers push single events or whole batches (one lock per batch);
// the consumer drains everything queued in one swap-like move, so queue
// cost per event amortizes to a few moves.  Every drop is reported to
// the caller through PushResult so the engine can count it — the queue
// itself never loses data silently.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "stream/config.h"
#include "stream/event.h"

namespace rap::stream {

/// Outcome of offering events to a bounded queue.
struct PushResult {
  std::size_t accepted = 0;
  std::size_t dropped_oldest = 0;  ///< residents evicted (kDropOldest)
  std::size_t dropped_newest = 0;  ///< arrivals rejected (kDropNewest / closed)
  /// Maximum event time among accepted events; kNoTimestamp when none.
  /// Dropped events never advance the watermark.
  std::int64_t max_accepted_ts = kNoTimestamp;

  static constexpr std::int64_t kNoTimestamp = INT64_MIN;

  PushResult& operator+=(const PushResult& other) noexcept {
    accepted += other.accepted;
    dropped_oldest += other.dropped_oldest;
    dropped_newest += other.dropped_newest;
    if (other.max_accepted_ts > max_accepted_ts) {
      max_accepted_ts = other.max_accepted_ts;
    }
    return *this;
  }
};

class BoundedEventQueue {
 public:
  BoundedEventQueue(std::size_t capacity, BackpressurePolicy policy);

  BoundedEventQueue(const BoundedEventQueue&) = delete;
  BoundedEventQueue& operator=(const BoundedEventQueue&) = delete;

  /// Offers one event / a whole batch under one lock.  kBlock waits for
  /// room (and accepts everything unless the queue closes mid-wait);
  /// the drop policies never wait.  Events in `batch` are consumed.
  PushResult push(LeafEvent event);
  PushResult pushMany(std::vector<LeafEvent>&& batch);

  /// Consumer side: appends every queued event to `out`.  Blocks until
  /// events arrive, nudge() is called, or the queue closes.  Returns
  /// false only when the queue is closed and nothing was drained (the
  /// terminal state).
  bool drainOrWait(std::vector<LeafEvent>& out);

  /// Non-blocking drain (used for the final flush).
  void drainNow(std::vector<LeafEvent>& out);

  /// Wakes the consumer without delivering events (watermark advanced,
  /// drain requested, shutdown).  Spurious wakeups are expected by the
  /// consumer loop.
  void nudge();

  /// No further pushes are accepted; blocked producers wake and report
  /// their remaining events as dropped_newest.
  void close();

  bool closed() const;
  std::size_t size() const;

 private:
  const std::size_t capacity_;
  const BackpressurePolicy policy_;

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;  ///< also signalled by nudge/close
  std::condition_variable not_full_;
  std::deque<LeafEvent> buffer_;
  bool closed_ = false;
  bool nudged_ = false;
};

}  // namespace rap::stream
