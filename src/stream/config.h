// Configuration of the streaming ingestion engine (src/stream).
//
// The engine is a sharded, thread-safe front-end to the batch pipeline:
// producers push leaf-level KPI rows, shards buffer them into event-time
// windows, a watermark policy seals windows, and sealed windows flow
// through detection -> alarm -> localization.  Every policy knob a
// deployment would tune lives here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "alarm/monitor.h"
#include "core/rapminer.h"

namespace rap::stream {

/// What a full shard queue does to new arrivals.
enum class BackpressurePolicy {
  kBlock,       ///< producers wait for room (lossless, propagates pressure)
  kDropOldest,  ///< evict the oldest queued event (keep freshest data)
  kDropNewest,  ///< reject the arriving event (keep admitted data)
};

/// When a sealed window is handed to RapMiner::localize.
enum class TriggerPolicy {
  kOnAlarm,          ///< the paper's Fig. 1 workflow: aggregate-KPI alarm
  kAnomalousWindow,  ///< any window with >= 1 anomalous leaf
  kEveryWindow,      ///< every non-empty window (benchmarks, backfills)
};

struct StreamConfig {
  /// Number of hash partitions (and consumer threads).
  std::int32_t shards = 4;
  /// Per-shard bounded queue capacity, in events.
  std::size_t queue_capacity = 1 << 16;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;

  /// Event-time units per window; windows are [e*width, (e+1)*width).
  std::int64_t window_width = 60;
  /// Watermark slack: a window seals once the maximum event time seen
  /// exceeds its end by this much.  0 = seal as soon as a later window's
  /// event arrives.
  std::int64_t allowed_lateness = 0;

  TriggerPolicy trigger = TriggerPolicy::kOnAlarm;
  /// Aggregate-KPI monitor fed one observation (the window's total
  /// actual value) per sealed window; used only with kOnAlarm.
  alarm::MonitorConfig monitor;
  alarm::AlarmManager::Config alarm_debounce;

  /// Per-leaf detection on sealed windows (RelativeDeviationDetector).
  double detect_threshold = 0.095;
  bool detect_two_sided = false;

  /// Thresholds of the per-window RapMiner.  Each window's search runs
  /// serially on its localize_threads worker; localize_threads bounds
  /// how many windows localize at once.
  core::RapMinerConfig miner;
  /// Patterns kept per localization (RapMiner::localize's k).
  std::int32_t top_k = 5;
  /// Workers of the localization pool; search never blocks ingestion.
  std::size_t localize_threads = 2;

  /// Per-window localization budget, in wall seconds.  > 0 overrides
  /// miner.search.deadline_seconds: a search that exhausts the budget
  /// returns its best candidates so far with result.degraded = true
  /// instead of stalling the pipeline.  0 = no deadline.
  double localize_deadline_seconds = 0.0;

  /// Capacity of the dead-letter buffer holding events that fail
  /// validation at ingest (see stream/quarantine.h).
  std::size_t quarantine_capacity = 1024;

  /// Sampling period of the background PipelineLagCollector publishing
  /// watermark lag, per-shard queue depths, and localize-pool
  /// utilization gauges (see stream/lag_collector.h).  0 disables the
  /// sampler thread entirely — the default, so batch-style embeddings
  /// pay nothing.
  double lag_sample_interval_seconds = 0.0;

  /// Tenant name stamped as a {tenant="..."} label on every
  /// rap_stream_* series this engine (and its lag collector) creates.
  /// Empty — the default — keeps the unlabeled legacy series, so a
  /// single-engine process is unchanged; the multi-tenant catalog sets
  /// it so per-tenant engines never share a series.
  std::string metric_tenant;
};

}  // namespace rap::stream
