#include "stream/shard.h"

#include <algorithm>
#include <limits>

#include "obs/trace.h"
#include "util/status.h"

namespace rap::stream {

Shard::Shard(std::int32_t id, const StreamConfig& config,
             WatermarkTracker& watermark, WindowAssembler& assembler,
             StreamCounters& counters, ShardMetrics metrics,
             std::function<void()> on_progress)
    : id_(id),
      config_(config),
      watermark_(watermark),
      assembler_(assembler),
      counters_(counters),
      metrics_(metrics),
      on_progress_(std::move(on_progress)),
      queue_(config.queue_capacity, config.backpressure) {}

Shard::~Shard() {
  queue_.close();
  join();
}

void Shard::start() {
  RAP_CHECK_MSG(!consumer_.joinable(), "shard started twice");
  consumer_ = std::thread([this] { consumerLoop(); });
}

void Shard::join() {
  if (consumer_.joinable()) consumer_.join();
}

PushResult Shard::offer(std::vector<LeafEvent>&& batch) {
  PushResult result = queue_.pushMany(std::move(batch));
  if (result.max_accepted_ts != PushResult::kNoTimestamp) {
    // Watermark moves only after the events backing it are queued, so a
    // consumer that observes the new watermark can already drain them.
    watermark_.observe(result.max_accepted_ts);
  }
  // Evicted residents (kDropOldest) left the buffer without ever being
  // drained, so they must come off the depth too.
  const std::int64_t depth_delta =
      static_cast<std::int64_t>(result.accepted) -
      static_cast<std::int64_t>(result.dropped_oldest);
  if (depth_delta != 0) {
    counters_.queued.fetch_add(depth_delta, std::memory_order_relaxed);
  }
  return result;
}

void Shard::requestDrain(std::uint64_t token) {
  std::uint64_t seen = drain_requested_.load(std::memory_order_relaxed);
  while (token > seen && !drain_requested_.compare_exchange_weak(
                             seen, token, std::memory_order_release)) {
  }
  queue_.nudge();
}

void Shard::requestSnapshot(std::uint64_t token) {
  std::uint64_t seen = snapshot_requested_.load(std::memory_order_relaxed);
  while (token > seen && !snapshot_requested_.compare_exchange_weak(
                             seen, token, std::memory_order_release)) {
  }
  queue_.nudge();
}

ShardState Shard::snapshotState() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void Shard::restore(ShardState state) {
  RAP_CHECK_MSG(!consumer_.joinable(), "restore() after start()");
  sealed_up_to_ = state.sealed_up_to;
  open_ = std::move(state.open);
}

void Shard::bucketEvents(std::vector<LeafEvent>& batch) {
  if (batch.empty()) return;
  const std::int64_t mark = watermark_.watermark();
  std::uint64_t late_admitted = 0;
  std::uint64_t late_dropped = 0;
  for (const LeafEvent& event : batch) {
    const std::int64_t epoch = epochOf(event.ts, config_.window_width);
    if (epoch <= sealed_up_to_) {
      late_dropped += 1;
      continue;
    }
    if (mark != WatermarkTracker::kNone && event.ts < mark) late_admitted += 1;
    open_[epoch].push_back(event);
  }
  counters_.queued.fetch_sub(static_cast<std::int64_t>(batch.size()),
                             std::memory_order_relaxed);
  if (late_admitted > 0) {
    counters_.late_admitted.fetch_add(late_admitted, std::memory_order_relaxed);
  }
  if (late_dropped > 0) {
    counters_.late_dropped.fetch_add(late_dropped, std::memory_order_relaxed);
  }
  if (obs::metricsEnabled()) {
    if (late_admitted > 0) metrics_.late_admitted->increment(late_admitted);
    if (late_dropped > 0) metrics_.late_dropped->increment(late_dropped);
    metrics_.queue_depth->set(static_cast<double>(
        counters_.queued.load(std::memory_order_relaxed)));
  }
  batch.clear();
}

void Shard::sealUpTo(std::int64_t epoch) {
  for (auto it = open_.begin(); it != open_.end() && it->first <= epoch;) {
    std::vector<LeafEvent>& rows = it->second;
    if (obs::tracingEnabled()) {
      // The ingest-side stage of the window's trace lane: a span over
      // this shard's fragment sort and hand-off, starting the flow the
      // sealer terminates in processWindow.
      RAP_TRACE_SPAN("stream/shard_seal",
                     {{"epoch", it->first},
                      {"shard", id_},
                      {"rows", static_cast<std::int64_t>(rows.size())}});
      std::sort(rows.begin(), rows.end(), canonicalLess);
      obs::traceFlow('s', kWindowFlowName, windowFlowId(it->first, id_ + 1),
                     {{"epoch", it->first}, {"shard", id_}});
      assembler_.contribute(id_, it->first, std::move(rows));
    } else {
      std::sort(rows.begin(), rows.end(), canonicalLess);
      assembler_.contribute(id_, it->first, std::move(rows));
    }
    it = open_.erase(it);
  }
  assembler_.sealShardUpTo(id_, epoch);
  sealed_up_to_ = epoch;
  on_progress_();
}

void Shard::consumerLoop() {
  std::vector<LeafEvent> batch;
  for (;;) {
    batch.clear();
    const bool alive = queue_.drainOrWait(batch);
    bucketEvents(batch);

    const std::uint64_t drain_token =
        drain_requested_.load(std::memory_order_acquire);
    if (drain_token > drain_acked_.load(std::memory_order_relaxed)) {
      // Pick up events racing with the drain request, then flush all.
      queue_.drainNow(batch);
      bucketEvents(batch);
      sealUpTo(std::numeric_limits<std::int64_t>::max());
      drain_acked_.store(drain_token, std::memory_order_release);
      on_progress_();
    } else {
      const std::int64_t sealable =
          watermark_.sealableEpoch(config_.window_width);
      if (sealable != WatermarkTracker::kNone && sealable > sealed_up_to_) {
        // offer() queues events before it advances the watermark, so
        // every event backing the observed watermark is drainable now;
        // bucket them before sealing or they would count as late.
        queue_.drainNow(batch);
        bucketEvents(batch);
        sealUpTo(sealable);
      }
    }

    const std::uint64_t snapshot_token =
        snapshot_requested_.load(std::memory_order_acquire);
    if (snapshot_token > snapshot_acked_.load(std::memory_order_relaxed)) {
      // Pick up events racing with the request, seal everything the
      // current watermark allows (so the recorded frontier matches the
      // promises already made to the assembler), then copy — the shard
      // keeps its state and continues serving after the checkpoint.
      queue_.drainNow(batch);
      bucketEvents(batch);
      const std::int64_t sealable =
          watermark_.sealableEpoch(config_.window_width);
      if (sealable != WatermarkTracker::kNone && sealable > sealed_up_to_) {
        sealUpTo(sealable);
      }
      {
        std::lock_guard<std::mutex> lock(snapshot_mutex_);
        snapshot_.sealed_up_to = sealed_up_to_;
        snapshot_.open = open_;
      }
      snapshot_acked_.store(snapshot_token, std::memory_order_release);
      on_progress_();
    }

    if (!alive) {
      // Closed and empty: contribute whatever is still open, then exit.
      sealUpTo(std::numeric_limits<std::int64_t>::max());
      return;
    }
  }
}

}  // namespace rap::stream
