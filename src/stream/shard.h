// One shard of the ingestion engine: a bounded queue plus the consumer
// thread that buckets its hash-partition of the stream into per-epoch
// window fragments and seals them against the watermark.
//
// Producers only ever touch the queue (offer); the consumer thread owns
// every other member, so the shard needs no lock of its own beyond the
// queue's.  Sealing decisions are local: the shard compares the shared
// watermark against its own open epochs, hands sealed fragments to the
// WindowAssembler, and drops events that arrive for epochs it has
// already sealed (counted, never silent).  Each fragment is sorted into
// canonical order (canonicalLess) on this thread before it is handed
// over, so the assembler only merges and the sealer never sorts.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "stream/config.h"
#include "stream/queue.h"
#include "stream/watermark.h"
#include "stream/window.h"

namespace rap::stream {

/// Ingest-side counters shared by all shards (all relaxed atomics); the
/// engine snapshots them for stats() and mirrors them into rap::obs.
struct StreamCounters {
  std::atomic<std::uint64_t> ingested{0};
  std::atomic<std::uint64_t> rejected{0};  ///< malformed / after shutdown
  std::atomic<std::uint64_t> dropped_oldest{0};
  std::atomic<std::uint64_t> dropped_newest{0};
  std::atomic<std::uint64_t> late_admitted{0};  ///< late but window open
  std::atomic<std::uint64_t> late_dropped{0};   ///< window already sealed
  std::atomic<std::int64_t> queued{0};          ///< current depth, all shards
};

/// Obs handles the consumer thread updates (resolved once by the engine;
/// only touched when obs::metricsEnabled()).
struct ShardMetrics {
  obs::Counter* late_admitted = nullptr;
  obs::Counter* late_dropped = nullptr;
  obs::Gauge* queue_depth = nullptr;
};

/// One shard's durable state: its seal frontier plus the window
/// fragments it has bucketed but not yet contributed.  Captured by the
/// snapshot protocol (checkpoint) and re-injected by restore().
struct ShardState {
  std::int64_t sealed_up_to = WatermarkTracker::kNone;
  std::map<std::int64_t, std::vector<LeafEvent>> open;
};

class Shard {
 public:
  Shard(std::int32_t id, const StreamConfig& config,
        WatermarkTracker& watermark, WindowAssembler& assembler,
        StreamCounters& counters, ShardMetrics metrics,
        std::function<void()> on_progress);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  void start();

  /// Seeds consumer-thread state from a checkpoint.  Must run before
  /// start(); events at epochs <= state.sealed_up_to will count late
  /// (exactly-once sealing across a kill/restore cycle).
  void restore(ShardState state);

  /// Snapshot request: the consumer flushes its queue into buckets,
  /// seals everything the current watermark allows, records a copy of
  /// its state (non-destructive — the shard keeps running), and acks
  /// `token`.  Quiesce producers first, as with requestDrain.
  void requestSnapshot(std::uint64_t token);
  std::uint64_t snapshotAck() const {
    return snapshot_acked_.load(std::memory_order_acquire);
  }
  /// The state recorded by the latest acked snapshot.
  ShardState snapshotState() const;

  /// Producer side: offers events to the bounded queue (backpressure
  /// policy applies) and advances the watermark by the accepted events.
  PushResult offer(std::vector<LeafEvent>&& batch);

  /// Flush request: the consumer will move every buffered event into its
  /// window fragments, seal ALL open epochs, and acknowledge `token`.
  /// After a drain the shard treats every future event as late.
  void requestDrain(std::uint64_t token);
  std::uint64_t drainAck() const {
    return drain_acked_.load(std::memory_order_acquire);
  }

  /// Wakes the consumer to re-check the watermark / drain state.
  void nudge() { queue_.nudge(); }

  /// Terminal: closes the queue; the consumer flushes and exits.
  void close() { queue_.close(); }
  void join();

  std::size_t queueDepth() const { return queue_.size(); }

 private:
  void consumerLoop();
  void bucketEvents(std::vector<LeafEvent>& batch);
  /// Sorts and contributes every open epoch <= `epoch`, then seals up
  /// to it.
  void sealUpTo(std::int64_t epoch);

  const std::int32_t id_;
  const StreamConfig& config_;
  WatermarkTracker& watermark_;
  WindowAssembler& assembler_;
  StreamCounters& counters_;
  const ShardMetrics metrics_;
  const std::function<void()> on_progress_;

  BoundedEventQueue queue_;

  // Consumer-thread state.
  std::map<std::int64_t, std::vector<LeafEvent>> open_;
  std::int64_t sealed_up_to_ = WatermarkTracker::kNone;

  std::atomic<std::uint64_t> drain_requested_{0};
  std::atomic<std::uint64_t> drain_acked_{0};

  std::atomic<std::uint64_t> snapshot_requested_{0};
  std::atomic<std::uint64_t> snapshot_acked_{0};
  mutable std::mutex snapshot_mutex_;
  ShardState snapshot_;  ///< guarded by snapshot_mutex_

  std::thread consumer_;
};

}  // namespace rap::stream
