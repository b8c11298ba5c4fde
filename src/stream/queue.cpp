#include "stream/queue.h"

#include "util/status.h"

namespace rap::stream {

BoundedEventQueue::BoundedEventQueue(std::size_t capacity,
                                     BackpressurePolicy policy)
    : capacity_(capacity), policy_(policy) {
  RAP_CHECK(capacity_ >= 1);
}

PushResult BoundedEventQueue::push(LeafEvent event) {
  return pushMany(std::vector<LeafEvent>{event});
}

PushResult BoundedEventQueue::pushMany(std::vector<LeafEvent>&& batch) {
  PushResult result;
  if (batch.empty()) return result;
  bool wake_consumer = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (const LeafEvent& event : batch) {
      if (closed_) {
        result.dropped_newest += 1;
        continue;
      }
      if (buffer_.size() >= capacity_) {
        switch (policy_) {
          case BackpressurePolicy::kBlock:
            // A consumer parked before this batch arrived has not been
            // notified yet (the batch notify runs after the loop) — wake
            // it now or producer and consumer wait on each other forever.
            not_empty_.notify_one();
            // Wait for the consumer; re-check closed afterwards (close()
            // wakes blocked producers so shutdown cannot deadlock).
            not_full_.wait(lock, [this] {
              return buffer_.size() < capacity_ || closed_;
            });
            if (closed_) {
              result.dropped_newest += 1;
              continue;
            }
            break;
          case BackpressurePolicy::kDropOldest:
            buffer_.pop_front();
            result.dropped_oldest += 1;
            break;
          case BackpressurePolicy::kDropNewest:
            result.dropped_newest += 1;
            continue;
        }
      }
      if (event.ts > result.max_accepted_ts) result.max_accepted_ts = event.ts;
      buffer_.push_back(event);
      result.accepted += 1;
      wake_consumer = true;
    }
  }
  batch.clear();
  if (wake_consumer) not_empty_.notify_one();
  return result;
}

bool BoundedEventQueue::drainOrWait(std::vector<LeafEvent>& out) {
  const std::size_t before = out.size();
  bool was_closed = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock,
                    [this] { return !buffer_.empty() || closed_ || nudged_; });
    nudged_ = false;
    out.insert(out.end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
    was_closed = closed_;
  }
  const bool drained = out.size() > before;
  if (drained) not_full_.notify_all();
  return drained || !was_closed;
}

void BoundedEventQueue::drainNow(std::vector<LeafEvent>& out) {
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drained = !buffer_.empty();
    out.insert(out.end(), buffer_.begin(), buffer_.end());
    buffer_.clear();
  }
  if (drained) not_full_.notify_all();
}

void BoundedEventQueue::nudge() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    nudged_ = true;
  }
  not_empty_.notify_one();
}

void BoundedEventQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

bool BoundedEventQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t BoundedEventQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return buffer_.size();
}

}  // namespace rap::stream
