#include "stream/lag_collector.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "stream/engine.h"
#include "stream/watermark.h"
#include "util/status.h"

namespace rap::stream {

PipelineLagCollector::PipelineLagCollector(const StreamEngine& engine)
    : PipelineLagCollector(engine, Options{}) {}

PipelineLagCollector::PipelineLagCollector(const StreamEngine& engine,
                                           Options options)
    : engine_(engine), options_(options) {
  RAP_CHECK(options_.interval_seconds > 0.0);
  auto& reg =
      options_.registry ? *options_.registry : obs::defaultRegistry();
  // Mirror the engine's tenant labeling so the collector refreshes the
  // same series family the engine publishes (tenant first, shard after).
  const obs::Labels labels =
      engine.config().metric_tenant.empty()
          ? obs::Labels{}
          : obs::Labels{{"tenant", engine.config().metric_tenant}};
  watermark_lag_ = &reg.gauge("rap_stream_watermark_lag_seconds", labels);
  pool_in_flight_ =
      &reg.gauge("rap_stream_localize_pool_in_flight", labels);
  pool_utilization_ =
      &reg.gauge("rap_stream_localize_pool_utilization", labels);
  queue_depth_ = &reg.gauge("rap_stream_queue_depth", labels);
  watermark_ = &reg.gauge("rap_stream_watermark", labels);
  const std::int32_t shards = engine.config().shards;
  shard_depth_.reserve(static_cast<std::size_t>(shards));
  for (std::int32_t i = 0; i < shards; ++i) {
    obs::Labels shard_labels = labels;
    shard_labels.emplace_back("shard", std::to_string(i));
    shard_depth_.push_back(
        &reg.gauge("rap_stream_shard_queue_depth", shard_labels));
  }
}

PipelineLagCollector::~PipelineLagCollector() { stop(); }

void PipelineLagCollector::start() {
  RAP_CHECK_MSG(!sampler_.joinable(), "lag collector started twice");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = false;
  }
  sampler_ = std::thread([this] { samplerLoop(); });
}

void PipelineLagCollector::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void PipelineLagCollector::sampleOnce() {
  const StreamStats stats = engine_.stats();

  // Event-time distance between the watermark (what the policy says is
  // sealable) and the sealed frontier (what actually sealed).  Stays
  // under one window width while sealing keeps up — deliberately
  // excluding the allowed-lateness slack, which is policy, not backlog
  // — and grows without bound when a shard or the sealer stalls.
  double lag = 0.0;
  if (stats.watermark != WatermarkTracker::kNone) {
    const std::int64_t width = engine_.config().window_width;
    const std::int64_t current = epochOf(stats.watermark, width);
    const std::int64_t frontier = engine_.sealedFrontierEpoch();
    if (frontier == WatermarkTracker::kNone) {
      // Nothing sealed yet: measure into the watermark's own window.
      lag = static_cast<double>(stats.watermark - current * width);
    } else if (frontier < current) {
      // frontier + 1 <= current, so the product cannot overflow the way
      // a post-drain frontier (INT64_MAX) would.
      lag = static_cast<double>(stats.watermark - (frontier + 1) * width);
    }  // frontier at/past the watermark's epoch (e.g. after drain): 0.
    lag = std::max(0.0, lag);
  }
  watermark_lag_->set(lag);

  const auto depths = engine_.shardQueueDepths();
  for (std::size_t i = 0; i < depths.size() && i < shard_depth_.size(); ++i) {
    shard_depth_[i]->set(static_cast<double>(depths[i]));
  }
  // The engine-wide gauges mirror stats() exactly (not the per-shard
  // sum, which misses events sitting in consumer batches mid-drain).
  queue_depth_->set(static_cast<double>(stats.queue_depth));
  watermark_->set(static_cast<double>(stats.watermark));

  // Utilization is the pool's own load, other owners' tasks included:
  // it reads 1 whenever this engine's next window would wait.
  const std::size_t workers = std::max<std::size_t>(1, engine_.localizeThreads());
  pool_in_flight_->set(static_cast<double>(engine_.localizeInFlight()));
  pool_utilization_->set(
      std::min(1.0, static_cast<double>(engine_.localizePoolInFlight()) /
                        static_cast<double>(workers)));

  samples_.fetch_add(1, std::memory_order_relaxed);
}

void PipelineLagCollector::samplerLoop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(options_.interval_seconds));
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (stop_requested_) return;
    lock.unlock();
    sampleOnce();
    lock.lock();
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
  }
}

}  // namespace rap::stream
