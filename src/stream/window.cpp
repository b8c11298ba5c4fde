#include "stream/window.h"

#include <algorithm>

#include "stream/watermark.h"
#include "util/status.h"

namespace rap::stream {

WindowAssembler::WindowAssembler(std::int32_t shard_count,
                                 std::int64_t window_width)
    : window_width_(window_width),
      shard_sealed_(static_cast<std::size_t>(shard_count),
                    WatermarkTracker::kNone) {
  RAP_CHECK(shard_count >= 1);
  RAP_CHECK(window_width >= 1);
}

void WindowAssembler::contribute(std::int32_t shard, std::int64_t epoch,
                                 std::vector<LeafEvent> rows) {
  if (rows.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = pending_.try_emplace(epoch);
  Pending& slot = it->second;
  if (inserted) slot.first_seen = std::chrono::steady_clock::now();
  if (slot.rows.empty()) {
    slot.rows = std::move(rows);
  } else {
    const auto middle = static_cast<std::ptrdiff_t>(slot.rows.size());
    slot.rows.insert(slot.rows.end(), rows.begin(), rows.end());
    std::inplace_merge(slot.rows.begin(), slot.rows.begin() + middle,
                       slot.rows.end(), canonicalLess);
  }
  slot.contributors.push_back(shard);
}

void WindowAssembler::sealShardUpTo(std::int32_t shard, std::int64_t epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& sealed = shard_sealed_[static_cast<std::size_t>(shard)];
  sealed = std::max(sealed, epoch);
}

std::int64_t WindowAssembler::sealedUpTo() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
}

std::map<std::int64_t, std::vector<LeafEvent>>
WindowAssembler::snapshotPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::int64_t, std::vector<LeafEvent>> out;
  for (const auto& [epoch, pending] : pending_) out[epoch] = pending.rows;
  return out;
}

std::optional<SealedWindow> WindowAssembler::popReadyLocked() {
  if (pending_.empty()) return std::nullopt;
  const std::int64_t ready_up_to =
      *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
  auto first = pending_.begin();
  if (ready_up_to == WatermarkTracker::kNone || first->first > ready_up_to) {
    return std::nullopt;
  }
  SealedWindow window;
  window.epoch = first->first;
  window.start_ts = first->first * window_width_;
  window.end_ts = window.start_ts + window_width_;
  window.rows = std::move(first->second.rows);
  window.contributors = std::move(first->second.contributors);
  window.first_seen = first->second.first_seen;
  std::sort(window.contributors.begin(), window.contributors.end());
  pending_.erase(first);
  return window;
}

std::optional<SealedWindow> WindowAssembler::popReady() {
  std::lock_guard<std::mutex> lock(mutex_);
  return popReadyLocked();
}

bool WindowAssembler::hasReady() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.empty()) return false;
  const std::int64_t ready_up_to =
      *std::min_element(shard_sealed_.begin(), shard_sealed_.end());
  return ready_up_to != WatermarkTracker::kNone &&
         pending_.begin()->first <= ready_up_to;
}

dataset::LeafTable sealedTable(const dataset::Schema& schema,
                               std::span<const LeafEvent> rows) {
  dataset::LeafTable table(schema);
  table.reserve(rows.size());
  for (const LeafEvent& row : rows) {
    table.addKey(row.leaf, row.v, row.f, /*anomalous=*/false);
  }
  return table;
}

}  // namespace rap::stream
