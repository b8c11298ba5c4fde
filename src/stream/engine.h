// StreamEngine — the streaming front-end of the paper's Fig. 1 workflow.
//
//   producers ──ingest──> shard queues ──consumers──> window fragments
//   (validate, encode                        │ watermark seals: each shard
//    StreamEvent -> LeafEvent)               │ sorts its fragment
//                                            v
//                                     WindowAssembler (merges)
//                                            │ canonical windows, epoch order
//                                            v
//              sealer thread: detect -> aggregate alarm -> trigger
//                                            │ snapshot on trigger
//                                            v
//                         ThreadPool: RapMiner::localize (never blocks
//                                     ingestion or sealing)
//
// Lifecycle: construct -> start() -> ingest()/ingestBatch() from any
// number of threads -> drain() (flush everything buffered, wait for the
// resulting localizations) -> stop() (drain + join; terminal).
//
// Threading contract:
//   * ingest/ingestBatch: any thread, concurrently.
//   * drain/stop: one control thread; quiesce producers first — events
//     racing a drain may be counted late and dropped.
//   * callbacks: the window callback runs on the sealer thread, the
//     localization callback on a pool worker; both must be thread-safe
//     with respect to the caller's own state and must not call back
//     into the engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "alarm/monitor.h"
#include "core/rapminer.h"
#include "core/types.h"
#include "dataset/leaf_table.h"
#include "dataset/schema.h"
#include "detect/detector.h"
#include "obs/metrics.h"
#include "stream/config.h"
#include "stream/quarantine.h"
#include "stream/shard.h"
#include "stream/watermark.h"
#include "stream/window.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rap::io {
struct StreamCheckpoint;
}  // namespace rap::io

namespace rap::stream {

class PipelineLagCollector;

/// Point-in-time snapshot of the engine's counters.
struct StreamStats {
  std::uint64_t ingested = 0;
  std::uint64_t rejected = 0;
  /// Rejected events routed to the dead-letter buffer (validation
  /// failures; monotone even after the buffer evicts or is drained).
  std::uint64_t rejected_quarantined = 0;
  std::uint64_t quarantine_overflowed = 0;
  std::uint64_t dropped_oldest = 0;
  std::uint64_t dropped_newest = 0;
  std::uint64_t late_admitted = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t windows_sealed = 0;
  /// Sealed windows abandoned by a seal-path failure (fault injection or
  /// an exception out of detection): counted, never silently lost.
  std::uint64_t windows_dropped = 0;
  std::uint64_t alarms = 0;
  std::uint64_t localizations = 0;
  /// Localizations that returned a partial (degraded) candidate set.
  std::uint64_t localizations_degraded = 0;
  /// Localize tasks that failed outright (injected fault / exception).
  std::uint64_t localize_failures = 0;
  std::int64_t queue_depth = 0;  ///< events buffered across all shards
  std::int64_t watermark = WatermarkTracker::kNone;
};

class StreamEngine {
 public:
  /// Sealed window as handed to the window callback: verdicts applied,
  /// alarm consulted.  The table reference is valid only for the call.
  struct WindowInfo {
    std::int64_t epoch = 0;
    std::int64_t start_ts = 0;
    std::int64_t end_ts = 0;
    const dataset::LeafTable& table;
    std::uint32_t anomalous_rows = 0;
    bool alarmed = false;
    bool localize_dispatched = false;
  };

  /// One finished localization.
  struct Localization {
    std::int64_t epoch = 0;
    std::int64_t start_ts = 0;
    std::int64_t end_ts = 0;
    std::size_t rows = 0;
    std::uint32_t anomalous_rows = 0;
    bool alarmed = false;
    core::LocalizationResult result;
  };

  using WindowCallback = std::function<void(const WindowInfo&)>;
  using LocalizationCallback = std::function<void(const Localization&)>;

  StreamEngine(dataset::Schema schema, StreamConfig config);
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Builds an engine whose shards, assembler, and watermark resume from
  /// the checkpoint at `path` (see io/checkpoint.h): the restarted
  /// engine picks up at the next unsealed epoch — epochs the checkpoint
  /// recorded as sealed are never sealed again, and buffered fragments
  /// survive the restart.  config.shards / window_width must match the
  /// checkpoint.  The engine is returned un-started.
  static util::Result<std::unique_ptr<StreamEngine>> restore(
      dataset::Schema schema, StreamConfig config, const std::string& path);

  /// Callbacks must be installed before start().
  void setWindowCallback(WindowCallback callback);
  void setLocalizationCallback(LocalizationCallback callback);
  /// Inspection hook for quarantined records; runs on the producer
  /// thread that hit the bad event.  Thread-safe to install any time.
  void setQuarantineCallback(QuarantineBuffer::InspectionCallback callback);

  void start();

  /// Thread-safe producer entry points.  Malformed events (wrong arity,
  /// wildcard slots, out-of-range ids) are counted as rejected, never
  /// aborted on — a daemon must survive a bad producer.
  PushResult ingest(StreamEvent event);
  PushResult ingestBatch(std::vector<StreamEvent> events);

  /// Flushes every buffered event into sealed windows and blocks until
  /// the resulting localizations finish.  The engine keeps running, but
  /// every epoch is sealed afterwards: later events count as late.
  void drain();

  /// drain() + join every thread.  Terminal and idempotent.
  void stop();

  /// Writes a consistent checkpoint to `path` while the engine keeps
  /// running: every shard flushes its queue, seals what the current
  /// watermark allows, and snapshots its state; the sealer finishes all
  /// ready windows first so the checkpoint holds only still-open
  /// fragments.  Quiesce producers for the duration of the call (as with
  /// drain()) — events racing a checkpoint may land on either side of
  /// the cut.  Fails (Status, never a crash) on I/O errors or when the
  /// engine is not running.
  util::Status checkpoint(const std::string& path);

  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopped_.load(std::memory_order_acquire);
  }

  StreamStats stats() const;

  /// Moves out the localizations finished so far, sorted by epoch.
  std::vector<Localization> takeLocalizations();

  /// Moves out the quarantined records buffered so far, oldest first.
  std::vector<QuarantinedEvent> takeQuarantined();

  const dataset::Schema& schema() const noexcept { return schema_; }
  const StreamConfig& config() const noexcept { return config_; }

  // Read-only probes sampled by the PipelineLagCollector and the admin
  // /statusz endpoint; all safe to call concurrently with full ingest
  // load.

  /// Ingest frontier: maximum event timestamp accepted so far
  /// (WatermarkTracker::kNone before the first event).
  std::int64_t maxEventTimestamp() const noexcept {
    return watermark_.maxTimestamp();
  }

  /// Sealed frontier: highest epoch EVERY shard has sealed past
  /// (WatermarkTracker::kNone until all shards have sealed something).
  std::int64_t sealedFrontierEpoch() const { return assembler_.sealedUpTo(); }

  /// Per-shard producer-queue depths, indexed by shard id.
  std::vector<std::size_t> shardQueueDepths() const;

  /// Localizations queued or running on the localization pool.
  std::size_t localizeInFlight() const;

  std::size_t localizeThreads() const noexcept {
    return config_.localize_threads;
  }

  /// steady_clock point of start(); epoch value before the engine starts.
  /// The admin /statusz endpoint derives uptime from it.
  std::chrono::steady_clock::time_point startTime() const noexcept {
    return start_time_;
  }

 private:
  struct EngineMetrics {
    obs::Counter* ingested = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* quarantined = nullptr;
    obs::Counter* dropped_oldest = nullptr;
    obs::Counter* dropped_newest = nullptr;
    obs::Counter* windows_sealed = nullptr;
    obs::Counter* windows_dropped = nullptr;
    obs::Counter* alarms = nullptr;
    obs::Counter* localizations = nullptr;
    obs::Counter* localizations_degraded = nullptr;
    obs::Counter* localize_failures = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* watermark = nullptr;
    obs::Histogram* seal_seconds = nullptr;
    obs::Histogram* localize_seconds = nullptr;
    /// Wall time from a window's first fragment contribution to its
    /// localization completing — the whole-pipeline latency signal.
    obs::Histogram* window_e2e_seconds = nullptr;
    ShardMetrics shard;
  };

  /// nullptr when a leaf row is valid, else a static reason string
  /// (arity mismatch, wildcard / out-of-range id, non-finite KPI value).
  /// Both ingested events and checkpointed fragment rows pass it before
  /// their leaf is encoded.
  const char* invalidReason(std::span<const dataset::ElemId> slots, double v,
                            double f) const noexcept;
  void maybeBroadcastSeal();
  void onShardProgress();
  void sealerLoop();
  void processWindow(SealedWindow window);
  bool allShardsAcked(std::uint64_t token) const;
  bool allShardsSnapshotAcked(std::uint64_t token) const;
  util::Result<io::StreamCheckpoint> captureCheckpoint();
  /// invalidArgument when a fragment row fails invalidReason; restore()
  /// then discards the engine.
  util::Status installCheckpoint(const io::StreamCheckpoint& checkpoint);

  dataset::Schema schema_;
  StreamConfig config_;

  StreamCounters counters_;
  WatermarkTracker watermark_;
  WindowAssembler assembler_;
  QuarantineBuffer quarantine_;
  EngineMetrics metrics_;
  std::vector<std::unique_ptr<Shard>> shards_;

  detect::RelativeDeviationDetector detector_;
  core::RapMiner miner_;
  std::unique_ptr<alarm::AlarmManager> alarm_;  ///< sealer thread only
  std::unique_ptr<util::ThreadPool> pool_;
  /// Background gauge sampler, owned iff
  /// config.lag_sample_interval_seconds > 0 (see stream/lag_collector.h).
  std::unique_ptr<PipelineLagCollector> lag_collector_;
  std::chrono::steady_clock::time_point start_time_{};

  std::atomic<std::uint64_t> windows_sealed_{0};
  std::atomic<std::uint64_t> windows_dropped_{0};
  std::atomic<std::uint64_t> alarms_{0};
  std::atomic<std::uint64_t> localizations_{0};
  std::atomic<std::uint64_t> localizations_degraded_{0};
  std::atomic<std::uint64_t> localize_failures_{0};
  std::atomic<std::int64_t> last_broadcast_epoch_{WatermarkTracker::kNone};

  std::thread sealer_;
  std::mutex sealer_mutex_;
  std::condition_variable sealer_cv_;
  std::condition_variable drain_cv_;
  bool progress_ = false;            ///< guarded by sealer_mutex_
  bool sealer_should_stop_ = false;  ///< guarded by sealer_mutex_
  std::uint64_t sealer_acked_drain_ = 0;  ///< guarded by sealer_mutex_
  std::atomic<std::uint64_t> drain_token_{0};
  std::uint64_t sealer_acked_snapshot_ = 0;  ///< guarded by sealer_mutex_
  std::atomic<std::uint64_t> snapshot_token_{0};

  std::mutex results_mutex_;
  std::vector<Localization> results_;

  WindowCallback window_cb_;
  LocalizationCallback localize_cb_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace rap::stream
