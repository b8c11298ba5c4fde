// StreamEngine — the streaming front-end of the paper's Fig. 1 workflow.
//
//   producers ──ingest──> shard queues ──consumers──> window fragments
//   (validate, encode                        │ watermark seals: each shard
//    StreamEvent -> LeafEvent)               │ sorts its fragment
//                                            v
//                                     WindowAssembler (collects)
//                                            │ fragment lists, epoch order
//                                            v
//              sealer thread: k-way merge -> table -> detect
//                             -> aggregate alarm -> trigger
//                                            │ snapshot on trigger
//                                            v
//                 localize pool: RapMiner::localize (never blocks
//                                    ingestion or sealing)
//
// Lifecycle: construct -> start() -> ingest()/ingestBatch() from any
// number of threads -> drain() (flush everything buffered, wait for the
// resulting localizations) -> stop() (drain + join; terminal).  drain()
// and checkpoint() share one control barrier: every shard flushes its
// queue, seals (drain: everything; checkpoint: what the watermark
// allows) and records its state, then the sealer finishes every ready
// window and acks.
//
// Threading contract:
//   * threads: one consumer per shard plus the sealer.  Localizations
//     run on StreamConfig::shared_pool when set (the catalog's pool,
//     shared with other tenants' jobs and engines), else on a pool of
//     localize_threads workers the engine owns (made by start()).  At
//     most localize_threads of the engine's windows are submitted to
//     the pool at once; later ones wait in the engine and each finished
//     window submits the next, so a backlog takes its turn with the
//     pool's other owners instead of queueing ahead of them.
//   * ingest/ingestBatch: any thread, concurrently.
//   * drain/checkpoint/stop: any thread; one control mutex serializes
//     them, so a checkpoint racing stop() either completes first or
//     fails with kFailedPrecondition, and drain() after stop() returns
//     at once.  Quiesce producers first — events racing a drain may be
//     counted late and dropped.
//     They wait for this engine's dispatched windows, never for the
//     whole pool, so never call them from a task on the pool the
//     engine localizes on: that task could hold the worker a window
//     needs.
//   * callbacks: the window callback runs on the sealer thread, the
//     localization callback on a pool worker; both must be thread-safe
//     with respect to the caller's own state and must not call back
//     into the engine.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
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
  /// Finished localizations evicted, oldest first, because more than
  /// StreamEngine::kMaxUntakenLocalizations were waiting for
  /// takeLocalizations() (each was still counted in `localizations` and
  /// handed to the localization callback).
  std::uint64_t localizations_overflowed = 0;
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

  /// Finished localizations kept for takeLocalizations(): the newest this
  /// many, so an engine whose results nobody takes (a served tenant
  /// reports through callbacks and metrics) holds a bounded amount.
  static constexpr std::size_t kMaxUntakenLocalizations = 4096;

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
  /// Returns at once after stop() (which drained already).
  void drain();

  /// drain() + join every thread.  Terminal and idempotent; concurrent
  /// calls join the threads once.
  void stop();

  /// Writes a consistent checkpoint to `path` while the engine keeps
  /// running: every shard flushes its queue, seals what the current
  /// watermark allows, and snapshots its state; the sealer finishes all
  /// ready windows first so the checkpoint holds only still-open
  /// fragments.  Quiesce producers for the duration of the call (as with
  /// drain()) — events racing a checkpoint may land on either side of
  /// the cut.  Fails (Status, never a crash) on I/O errors or when the
  /// engine is not running, also when stop() won the race for it.
  util::Status checkpoint(const std::string& path);

  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopped_.load(std::memory_order_acquire);
  }

  StreamStats stats() const;

  /// Moves out the localizations finished so far (the newest
  /// kMaxUntakenLocalizations of them), sorted by epoch.
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

  /// Windows dispatched for localization whose result is not yet
  /// delivered (queued or running; helper tasks are not counted).
  std::size_t localizeInFlight() const;

  /// Workers of the pool this engine localizes on (shared or owned).
  std::size_t localizeThreads() const noexcept {
    return pool_ != nullptr ? pool_->threadCount() : config_.localize_threads;
  }

  /// Tasks of every owner queued or running on that pool: once it
  /// reaches localizeThreads(), this engine's next window waits.
  std::size_t localizePoolInFlight() const {
    return pool_ != nullptr ? pool_->inFlight() : 0;
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
    obs::Counter* localizations_overflowed = nullptr;
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
  /// A window dispatched for localization, with the snapshot it runs on.
  struct PendingWindow {
    Localization out;
    dataset::LeafTable table;
    std::chrono::steady_clock::time_point first_seen;
  };
  void submitWindow(PendingWindow window);
  /// Runs one window's search on a pool worker and fills `out`; false
  /// when it failed (counted and logged, nothing to deliver).
  bool localizeWindow(Localization& out, const dataset::LeafTable& table,
                      std::chrono::steady_clock::time_point first_seen);
  /// Appends a delivered localization to results_, evicting the oldest
  /// past kMaxUntakenLocalizations; results_mutex_ held.
  void keepLocalizationLocked(Localization out);
  /// Blocks until windows_in_flight_ is 0.
  void awaitLocalizations();
  bool allShardsAcked(std::uint64_t token) const;
  /// One control barrier (see Shard::requestBarrier): every shard flushes
  /// its queue, seals (to +infinity when `flush`) and records its state,
  /// then the sealer finishes every ready window and acks.  Returns once
  /// acked; control_mutex_ held.
  void barrier(bool flush);
  /// drain() with control_mutex_ held.
  void drainLocked();
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
  /// Made by start() unless config.shared_pool is set.
  std::unique_ptr<util::ThreadPool> owned_pool_;
  util::ThreadPool* pool_;  ///< shared_pool, or owned_pool_ from start()
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
  std::atomic<std::uint64_t> localizations_overflowed_{0};
  std::atomic<std::int64_t> last_broadcast_epoch_{WatermarkTracker::kNone};

  std::thread sealer_;
  std::mutex sealer_mutex_;
  std::condition_variable sealer_cv_;
  std::condition_variable barrier_cv_;
  bool progress_ = false;            ///< guarded by sealer_mutex_
  bool sealer_should_stop_ = false;  ///< guarded by sealer_mutex_
  std::uint64_t sealer_acked_barrier_ = 0;  ///< guarded by sealer_mutex_
  /// Written only under control_mutex_, read by the sealer.
  std::atomic<std::uint64_t> barrier_token_{0};
  /// Serializes drain, checkpoint and stop (and so every barrier).
  std::mutex control_mutex_;

  mutable std::mutex results_mutex_;
  std::deque<Localization> results_;  ///< delivery order, bounded
  /// Windows dispatched and not yet delivered; guarded by
  /// results_mutex_, signalled on localized_cv_ when it reaches 0.
  std::size_t windows_in_flight_ = 0;
  /// Of those, the ones submitted to pool_ (at most localize_threads)
  /// and the ones waiting for a slot, oldest first; guarded by
  /// results_mutex_.
  std::size_t windows_on_pool_ = 0;
  std::deque<PendingWindow> waiting_windows_;
  std::condition_variable localized_cv_;

  WindowCallback window_cb_;
  LocalizationCallback localize_cb_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace rap::stream
