// Background pipeline-lag sampler for a running StreamEngine.
//
// Counters tell you what happened; an operator watching a live daemon
// also needs to know how far behind it is RIGHT NOW.  The collector is
// one thread that periodically samples the engine's read-only state and
// publishes gauges:
//
//   rap_stream_watermark_lag_seconds      watermark minus sealed
//                                         frontier, in event-time units
//                                         (< window width while sealing
//                                         keeps up; grows on a stall)
//   rap_stream_shard_queue_depth{shard=i} per-shard buffered events
//   rap_stream_localize_pool_in_flight    this engine's windows queued
//                                         or localizing
//   rap_stream_localize_pool_utilization  tasks of every owner on the
//                                         pool / its workers, saturates
//                                         at 1.0
//
// It also refreshes the engine's own rap_stream_queue_depth and
// rap_stream_watermark gauges, which the hot path only updates when
// events move — a stalled pipeline would otherwise scrape stale depth.
//
// The engine owns a collector when config.lag_sample_interval_seconds
// is > 0 (started/stopped with the engine); tests construct one
// directly and call sampleOnce().  Every sampled accessor is
// thread-safe, so the collector may run alongside full ingest load.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace rap::stream {

class StreamEngine;

class PipelineLagCollector {
 public:
  struct Options {
    double interval_seconds = 0.25;
    /// Registry the gauges land in; nullptr = obs::defaultRegistry().
    obs::MetricsRegistry* registry = nullptr;
  };

  explicit PipelineLagCollector(const StreamEngine& engine);
  PipelineLagCollector(const StreamEngine& engine, Options options);
  ~PipelineLagCollector();

  PipelineLagCollector(const PipelineLagCollector&) = delete;
  PipelineLagCollector& operator=(const PipelineLagCollector&) = delete;

  /// Spawns the sampler thread.  Idempotent-hostile like the engine:
  /// start exactly once.
  void start();

  /// Stops and joins the sampler.  Idempotent; also run by the
  /// destructor.
  void stop();

  /// Takes one sample synchronously (also what the thread does each
  /// tick).  Exposed so tests assert gauge values deterministically.
  void sampleOnce();

  std::uint64_t samplesTaken() const noexcept {
    return samples_.load(std::memory_order_relaxed);
  }

 private:
  void samplerLoop();

  const StreamEngine& engine_;
  const Options options_;

  obs::Gauge* watermark_lag_;
  obs::Gauge* pool_in_flight_;
  obs::Gauge* pool_utilization_;
  obs::Gauge* queue_depth_;
  obs::Gauge* watermark_;
  std::vector<obs::Gauge*> shard_depth_;  ///< one per shard, label shard=i

  std::atomic<std::uint64_t> samples_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  ///< guarded by mutex_
  std::thread sampler_;
};

}  // namespace rap::stream
