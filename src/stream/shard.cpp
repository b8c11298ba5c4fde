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

void Shard::requestBarrier(std::uint64_t token, bool flush) {
  barrier_flush_.store(flush, std::memory_order_relaxed);
  barrier_requested_.store(token, std::memory_order_release);
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
    // The ingest-side stage of the window's trace lane: a span over this
    // shard's fragment sort and hand-off, starting the flow the sealer
    // terminates in processWindow.  Both are inert unless tracing is on.
    RAP_TRACE_SPAN("stream/shard_seal",
                   {{"epoch", it->first},
                    {"shard", id_},
                    {"rows", static_cast<std::int64_t>(rows.size())}});
    std::sort(rows.begin(), rows.end(), canonicalLess);
    obs::traceFlow('s', kWindowFlowName, windowFlowId(it->first, id_ + 1),
                   {{"epoch", it->first}, {"shard", id_}});
    assembler_.contribute(id_, it->first, std::move(rows));
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

    const std::uint64_t token =
        barrier_requested_.load(std::memory_order_acquire);
    const bool barrier = token > barrier_acked_.load(std::memory_order_relaxed);
    const std::int64_t target =
        barrier && barrier_flush_.load(std::memory_order_relaxed)
            ? std::numeric_limits<std::int64_t>::max()
            : watermark_.sealableEpoch(config_.window_width);
    const bool seal =
        target != WatermarkTracker::kNone && target > sealed_up_to_;
    if (barrier || seal) {
      // offer() queues events before it advances the watermark, so every
      // event backing the observed watermark (or racing the barrier) is
      // drainable now; bucket them before sealing or they would count as
      // late.
      queue_.drainNow(batch);
      bucketEvents(batch);
      if (seal) sealUpTo(target);
    }
    if (barrier) {
      // The recorded frontier matches the promises already made to the
      // assembler; the shard keeps its state and goes on serving.
      {
        std::lock_guard<std::mutex> lock(snapshot_mutex_);
        snapshot_.sealed_up_to = sealed_up_to_;
        snapshot_.open = open_;
      }
      barrier_acked_.store(token, std::memory_order_release);
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
