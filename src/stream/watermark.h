// Event-time watermark policy.
//
// The tracker follows the maximum event timestamp accepted so far; the
// watermark trails it by the configured allowed lateness.  A window
// [e*W, (e+1)*W) may seal once watermark >= (e+1)*W: at that point every
// event the policy still admits for it has either arrived or will be
// counted late.  Updates are a single relaxed CAS-max, so producers on
// the ingest hot path never serialize here.
#pragma once

#include <atomic>
#include <cstdint>

#include "stream/event.h"

namespace rap::stream {

class WatermarkTracker {
 public:
  /// Sentinel for "no event seen yet" / "nothing sealable".
  static constexpr std::int64_t kNone = INT64_MIN;

  explicit WatermarkTracker(std::int64_t allowed_lateness)
      : lateness_(allowed_lateness) {}

  WatermarkTracker(const WatermarkTracker&) = delete;
  WatermarkTracker& operator=(const WatermarkTracker&) = delete;

  /// Folds one accepted event time into the maximum (monotone).
  void observe(std::int64_t ts) noexcept {
    std::int64_t seen = max_ts_.load(std::memory_order_relaxed);
    while (ts > seen &&
           !max_ts_.compare_exchange_weak(seen, ts, std::memory_order_relaxed)) {
    }
  }

  std::int64_t maxTimestamp() const noexcept {
    return max_ts_.load(std::memory_order_relaxed);
  }

  /// Current watermark, or kNone before the first event.
  std::int64_t watermark() const noexcept {
    const std::int64_t seen = max_ts_.load(std::memory_order_relaxed);
    return seen == kNone ? kNone : seen - lateness_;
  }

  /// Highest epoch whose window may be sealed for width-`width` windows
  /// (kNone when no window is sealable yet).
  std::int64_t sealableEpoch(std::int64_t width) const noexcept {
    const std::int64_t mark = watermark();
    return mark == kNone ? kNone : epochOf(mark, width) - 1;
  }

 private:
  std::atomic<std::int64_t> max_ts_{kNone};
  const std::int64_t lateness_;
};

}  // namespace rap::stream
