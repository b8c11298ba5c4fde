#include "stream/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "dataset/cuboid.h"
#include "fault/fault.h"
#include "io/checkpoint.h"
#include "obs/trace.h"
#include "stream/lag_collector.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/timer.h"

namespace rap::stream {

namespace {

/// The stream-level localization deadline, when set, overrides the
/// miner's own.
core::RapMinerConfig minerConfigForStream(const StreamConfig& config) {
  core::RapMinerConfig miner = config.miner;
  if (config.localize_deadline_seconds > 0.0) {
    miner.search.deadline_seconds = config.localize_deadline_seconds;
  }
  return miner;
}

}  // namespace

StreamEngine::StreamEngine(dataset::Schema schema, StreamConfig config)
    : schema_(std::move(schema)),
      config_(config),
      watermark_(config.allowed_lateness),
      assembler_(config.shards, config.window_width),
      quarantine_(config.quarantine_capacity),
      detector_(config.detect_threshold, config.detect_two_sided),
      miner_(minerConfigForStream(config)),
      pool_(config.shared_pool) {
  RAP_CHECK(config_.shards >= 1);
  RAP_CHECK(config_.window_width >= 1);
  RAP_CHECK(config_.allowed_lateness >= 0);
  RAP_CHECK(config_.queue_capacity >= 1);
  RAP_CHECK(config_.localize_threads >= 1);
  RAP_CHECK(config_.quarantine_capacity >= 1);
  RAP_CHECK(std::isfinite(config_.localize_deadline_seconds) &&
            config_.localize_deadline_seconds >= 0.0);

  auto& reg = obs::defaultRegistry();
  // Empty metric_tenant keeps the unlabeled legacy series; a catalog
  // tenant gets its own {tenant="..."} series family.
  const obs::Labels labels =
      config_.metric_tenant.empty()
          ? obs::Labels{}
          : obs::Labels{{"tenant", config_.metric_tenant}};
  metrics_.ingested = &reg.counter("rap_stream_ingested_total", labels);
  metrics_.rejected = &reg.counter("rap_stream_rejected_total", labels);
  metrics_.quarantined = &reg.counter("rap_stream_quarantined_total", labels);
  metrics_.dropped_oldest =
      &reg.counter("rap_stream_dropped_oldest_total", labels);
  metrics_.dropped_newest =
      &reg.counter("rap_stream_dropped_newest_total", labels);
  metrics_.windows_sealed =
      &reg.counter("rap_stream_windows_sealed_total", labels);
  metrics_.windows_dropped =
      &reg.counter("rap_stream_windows_dropped_total", labels);
  metrics_.alarms = &reg.counter("rap_stream_alarms_total", labels);
  metrics_.localizations =
      &reg.counter("rap_stream_localizations_total", labels);
  metrics_.localizations_degraded =
      &reg.counter("rap_stream_localizations_degraded_total", labels);
  metrics_.localize_failures =
      &reg.counter("rap_stream_localize_failures_total", labels);
  metrics_.localizations_overflowed =
      &reg.counter("rap_stream_localizations_overflowed_total", labels);
  metrics_.queue_depth = &reg.gauge("rap_stream_queue_depth", labels);
  metrics_.watermark = &reg.gauge("rap_stream_watermark", labels);
  metrics_.seal_seconds =
      &reg.histogram("rap_stream_window_seal_seconds",
                     obs::exponentialBuckets(1e-5, 4.0, 10), labels);
  metrics_.localize_seconds =
      &reg.histogram("rap_stream_localize_seconds",
                     obs::exponentialBuckets(1e-4, 4.0, 10), labels);
  metrics_.window_e2e_seconds =
      &reg.histogram("rap_stream_window_e2e_seconds",
                     obs::exponentialBuckets(1e-3, 4.0, 10), labels);
  metrics_.shard.late_admitted =
      &reg.counter("rap_stream_late_admitted_total", labels);
  metrics_.shard.late_dropped =
      &reg.counter("rap_stream_late_dropped_total", labels);
  metrics_.shard.queue_depth = metrics_.queue_depth;

  if (config_.trigger == TriggerPolicy::kOnAlarm) {
    alarm_ = std::make_unique<alarm::AlarmManager>(config_.monitor,
                                                   config_.alarm_debounce);
  }

  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (std::int32_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, config_, watermark_, assembler_, counters_, metrics_.shard,
        [this] { onShardProgress(); }));
  }
}

StreamEngine::~StreamEngine() { stop(); }

void StreamEngine::setWindowCallback(WindowCallback callback) {
  RAP_CHECK_MSG(!started_.load(), "install callbacks before start()");
  window_cb_ = std::move(callback);
}

void StreamEngine::setLocalizationCallback(LocalizationCallback callback) {
  RAP_CHECK_MSG(!started_.load(), "install callbacks before start()");
  localize_cb_ = std::move(callback);
}

void StreamEngine::setQuarantineCallback(
    QuarantineBuffer::InspectionCallback callback) {
  quarantine_.setCallback(std::move(callback));
}

void StreamEngine::start() {
  RAP_CHECK_MSG(!started_.load(), "engine started twice");
  RAP_CHECK_MSG(!stopped_.load(), "engine is terminal after stop()");
  if (pool_ == nullptr) {
    owned_pool_ = std::make_unique<util::ThreadPool>(config_.localize_threads);
    pool_ = owned_pool_.get();
  }
  for (auto& shard : shards_) shard->start();
  sealer_ = std::thread([this] { sealerLoop(); });
  start_time_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_release);
  if (config_.lag_sample_interval_seconds > 0.0) {
    PipelineLagCollector::Options options;
    options.interval_seconds = config_.lag_sample_interval_seconds;
    lag_collector_ = std::make_unique<PipelineLagCollector>(*this, options);
    lag_collector_->start();
  }
}

const char* StreamEngine::invalidReason(std::span<const dataset::ElemId> slots,
                                        double v, double f) const noexcept {
  if (slots.size() != static_cast<std::size_t>(schema_.attributeCount())) {
    return "attribute arity does not match schema";
  }
  const std::span<const std::int32_t> limits = schema_.cardinalities();
  for (std::size_t a = 0; a < slots.size(); ++a) {
    const dataset::ElemId elem = slots[a];
    // Rejects wildcards (kWildcard == -1) and out-of-range ids alike.
    if (elem < 0) return "wildcard or negative element id";
    if (elem >= limits[a]) return "element id out of range";
  }
  if (!std::isfinite(v)) return "non-finite actual value";
  if (!std::isfinite(f)) return "non-finite forecast value";
  return nullptr;
}

PushResult StreamEngine::ingest(StreamEvent event) {
  std::vector<StreamEvent> one;
  one.push_back(std::move(event));
  return ingestBatch(std::move(one));
}

PushResult StreamEngine::ingestBatch(std::vector<StreamEvent> events) {
  PushResult total;
  if (events.empty()) return total;
  std::uint64_t rejected = 0;
  std::uint64_t quarantined = 0;
  if (!running()) {
    rejected = events.size();
  } else if (const fault::Action injected = RAP_FAULT_HIT("stream.ingest");
             injected == fault::Action::kDrop ||
             injected == fault::Action::kError) {
    // Injected ingest failure: the whole batch is discarded — counted as
    // dropped_newest, never silently.
    total.dropped_newest = events.size();
  } else {
    std::vector<std::vector<LeafEvent>> parts(shards_.size());
    for (auto& event : events) {
      if (const char* reason =
              invalidReason(event.leaf.slots(), event.v, event.f)) {
        rejected += 1;
        quarantined += 1;
        quarantine_.add(std::move(event), reason);
        continue;
      }
      // Routing hashes the combination, as it always has; from here on
      // the leaf travels as its packed key.
      const std::size_t shard = shardOf(event.leaf, shards_.size());
      parts[shard].push_back(LeafEvent{schema_.pack(event.leaf.slots()),
                                       event.ts, event.v, event.f});
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].empty()) total += shards_[i]->offer(std::move(parts[i]));
    }
  }

  if (total.accepted > 0) {
    counters_.ingested.fetch_add(total.accepted, std::memory_order_relaxed);
  }
  if (rejected > 0) {
    counters_.rejected.fetch_add(rejected, std::memory_order_relaxed);
  }
  if (total.dropped_oldest > 0) {
    counters_.dropped_oldest.fetch_add(total.dropped_oldest,
                                       std::memory_order_relaxed);
  }
  if (total.dropped_newest > 0) {
    counters_.dropped_newest.fetch_add(total.dropped_newest,
                                       std::memory_order_relaxed);
  }
  if (obs::metricsEnabled()) {
    if (total.accepted > 0) metrics_.ingested->increment(total.accepted);
    if (rejected > 0) metrics_.rejected->increment(rejected);
    if (quarantined > 0) metrics_.quarantined->increment(quarantined);
    if (total.dropped_oldest > 0) {
      metrics_.dropped_oldest->increment(total.dropped_oldest);
    }
    if (total.dropped_newest > 0) {
      metrics_.dropped_newest->increment(total.dropped_newest);
    }
    metrics_.queue_depth->set(static_cast<double>(
        counters_.queued.load(std::memory_order_relaxed)));
  }
  maybeBroadcastSeal();
  return total;
}

void StreamEngine::maybeBroadcastSeal() {
  // Wake every shard when the sealable frontier crosses a new epoch, so
  // shards that happen to be idle still seal (and the assembler's
  // min-over-shards frontier advances).  At most one broadcast per
  // window width of event time.
  const std::int64_t sealable = watermark_.sealableEpoch(config_.window_width);
  if (sealable == WatermarkTracker::kNone) return;
  std::int64_t seen = last_broadcast_epoch_.load(std::memory_order_relaxed);
  if (sealable <= seen) return;
  if (last_broadcast_epoch_.compare_exchange_strong(seen, sealable,
                                                    std::memory_order_relaxed)) {
    for (auto& shard : shards_) shard->nudge();
  }
}

void StreamEngine::onShardProgress() {
  {
    std::lock_guard<std::mutex> lock(sealer_mutex_);
    progress_ = true;
  }
  sealer_cv_.notify_one();
}

bool StreamEngine::allShardsAcked(std::uint64_t token) const {
  for (const auto& shard : shards_) {
    if (shard->drainAck() < token) return false;
  }
  return true;
}

bool StreamEngine::allShardsSnapshotAcked(std::uint64_t token) const {
  for (const auto& shard : shards_) {
    if (shard->snapshotAck() < token) return false;
  }
  return true;
}

void StreamEngine::sealerLoop() {
  std::unique_lock<std::mutex> lock(sealer_mutex_);
  for (;;) {
    sealer_cv_.wait(lock, [this] { return progress_ || sealer_should_stop_; });
    progress_ = false;
    const bool stopping = sealer_should_stop_;
    lock.unlock();

    while (auto window = assembler_.popReady()) {
      const std::int64_t epoch = window->epoch;
      try {
        processWindow(std::move(*window));
      } catch (const std::exception& e) {
        // A seal-path failure must never take down the sealer thread:
        // the window is dropped (counted, logged) and the engine keeps
        // sealing subsequent windows.
        windows_dropped_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsEnabled()) metrics_.windows_dropped->increment();
        RAP_LOG_KV(Warn, {"epoch", epoch}, {"error", e.what()})
            << "window dropped: seal failure";
      }
    }

    lock.lock();
    const std::uint64_t token = drain_token_.load(std::memory_order_acquire);
    if (token > sealer_acked_drain_ && allShardsAcked(token) &&
        !assembler_.hasReady()) {
      sealer_acked_drain_ = token;
      drain_cv_.notify_all();
    }
    const std::uint64_t snapshot_token =
        snapshot_token_.load(std::memory_order_acquire);
    if (snapshot_token > sealer_acked_snapshot_ &&
        allShardsSnapshotAcked(snapshot_token) && !assembler_.hasReady()) {
      // Every shard has recorded its cut and no window is left ready:
      // the assembler's pending set is now exactly the partially sealed
      // fragments the checkpoint must carry.
      sealer_acked_snapshot_ = snapshot_token;
      drain_cv_.notify_all();
    }
    if (stopping && !progress_ && !assembler_.hasReady()) return;
  }
}

void StreamEngine::processWindow(SealedWindow window) {
  switch (RAP_FAULT_HIT("stream.seal")) {
    case fault::Action::kError:
    case fault::Action::kDrop:
      windows_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metricsEnabled()) metrics_.windows_dropped->increment();
      RAP_LOG_KV(Warn, {"epoch", window.epoch})
          << "window dropped: injected seal fault";
      return;
    default:
      break;
  }

  util::WallTimer timer;
  RAP_TRACE_SPAN("stream/seal_window",
                 {{"epoch", window.epoch},
                  {"rows", static_cast<std::int64_t>(window.rowCount())}});
  if (obs::tracingEnabled()) {
    // Terminate each contributing shard's seal -> sealer flow inside
    // this span, so Perfetto draws one arrow per fragment converging on
    // the seal slice.  Checkpoint-restored fragments (-1) have no
    // originating span to link from.
    for (const std::int32_t shard : window.contributors) {
      if (shard < 0) continue;
      obs::traceFlow('f', kWindowFlowName, windowFlowId(window.epoch, shard + 1),
                     {{"epoch", window.epoch}, {"shard", shard}});
    }
  }
  // One k-way merge of the shards' sorted fragments, straight into the
  // table's columns.
  dataset::LeafTable table = sealedTable(schema_, window.fragments);

  const std::uint32_t flagged = detector_.run(table);
  bool alarmed = false;
  if (alarm_) alarmed = alarm_->observe(table.totalV()).has_value();

  bool localize = false;
  switch (config_.trigger) {
    case TriggerPolicy::kOnAlarm:
      localize = alarmed;
      break;
    case TriggerPolicy::kAnomalousWindow:
      localize = flagged > 0;
      break;
    case TriggerPolicy::kEveryWindow:
      localize = !table.empty();
      break;
  }

  windows_sealed_.fetch_add(1, std::memory_order_relaxed);
  if (alarmed) alarms_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metricsEnabled()) {
    metrics_.windows_sealed->increment();
    if (alarmed) metrics_.alarms->increment();
    metrics_.seal_seconds->observe(timer.elapsedSeconds());
    metrics_.watermark->set(static_cast<double>(watermark_.watermark()));
  }

  if (window_cb_) {
    const WindowInfo info{window.epoch, window.start_ts, window.end_ts,
                          table,        flagged,         alarmed,
                          localize};
    window_cb_(info);
  }
  if (!localize) return;

  // Snapshot ships to the pool; ingestion and sealing never wait on the
  // search.  ThreadPool tasks must not throw — localize inputs were
  // validated at ingest, so the only throw paths left are injected
  // faults (and whatever a chaotic deployment surprises us with), which
  // localizeWindow contains as counted failures.
  // Start the sealer -> localize-pool flow while still inside the seal
  // span: the arrow leaves this slice and lands on the pool worker's
  // localize slice, completing the window's cross-thread lane.
  obs::traceFlow('s', kWindowFlowName, windowFlowId(window.epoch, 0),
                 {{"epoch", window.epoch}});
  PendingWindow pending{{window.epoch, window.start_ts, window.end_ts,
                         table.size(), flagged, alarmed, {}},
                        std::move(table),
                        window.first_seen};
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    ++windows_in_flight_;
    if (windows_on_pool_ == config_.localize_threads) {
      waiting_windows_.push_back(std::move(pending));
      return;
    }
    ++windows_on_pool_;
  }
  submitWindow(std::move(pending));
}

void StreamEngine::submitWindow(PendingWindow window) {
  // The task that delivers a window submits the next waiting one, which
  // queues behind whatever other owners of the pool submitted since: a
  // backlog of this engine's windows never holds more than
  // localize_threads of the pool's tasks, so it cannot starve them.
  pool_->submit([this, window = std::move(window)]() mutable {
    const bool localized =
        localizeWindow(window.out, window.table, window.first_seen);
    std::unique_lock<std::mutex> lock(results_mutex_);
    if (localized) keepLocalizationLocked(std::move(window.out));
    if (--windows_in_flight_ == 0) localized_cv_.notify_all();
    if (waiting_windows_.empty()) {
      --windows_on_pool_;
      return;
    }
    PendingWindow next = std::move(waiting_windows_.front());
    waiting_windows_.pop_front();
    lock.unlock();
    submitWindow(std::move(next));
  });
}

void StreamEngine::keepLocalizationLocked(Localization out) {
  if (results_.size() == kMaxUntakenLocalizations) {
    results_.pop_front();
    if (localizations_overflowed_.fetch_add(1, std::memory_order_relaxed) ==
        0) {
      RAP_LOG_KV(Warn, {"kept", static_cast<std::int64_t>(
                                    kMaxUntakenLocalizations)})
          << "untaken localizations overflowed: evicting the oldest";
    }
    if (obs::metricsEnabled()) metrics_.localizations_overflowed->increment();
  }
  results_.push_back(std::move(out));
}

bool StreamEngine::localizeWindow(
    Localization& out, const dataset::LeafTable& table,
    std::chrono::steady_clock::time_point first_seen) {
  const std::int64_t epoch = out.epoch;
  RAP_TRACE_SPAN("stream/localize", {{"epoch", epoch}});
  obs::traceFlow('f', kWindowFlowName, windowFlowId(epoch, 0),
                 {{"epoch", epoch}});
  util::WallTimer localize_timer;
  try {
    switch (RAP_FAULT_HIT("stream.localize")) {
      case fault::Action::kError:
      case fault::Action::kDrop:
        localize_failures_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsEnabled()) metrics_.localize_failures->increment();
        RAP_LOG_KV(Warn, {"epoch", epoch})
            << "localization failed: injected fault";
        return false;
      default:
        break;
    }
    // miner_ persists across epochs, so its internal WorkspacePool
    // retains the search scratch: steady-state epochs reuse capacity
    // instead of reallocating, and concurrent pool workers each lease
    // their own workspace from it.  The search fans out to whichever
    // workers of the pool are idle.
    out.result = miner_.localize(table, config_.top_k, pool_);
  } catch (const std::exception& e) {
    localize_failures_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsEnabled()) metrics_.localize_failures->increment();
    RAP_LOG_KV(Warn, {"epoch", epoch}, {"error", e.what()})
        << "localization failed";
    return false;
  }
  localizations_.fetch_add(1, std::memory_order_relaxed);
  if (out.result.degraded) {
    localizations_degraded_.fetch_add(1, std::memory_order_relaxed);
  }
  if (obs::metricsEnabled()) {
    metrics_.localizations->increment();
    if (out.result.degraded) metrics_.localizations_degraded->increment();
    metrics_.localize_seconds->observe(localize_timer.elapsedSeconds());
    if (first_seen != std::chrono::steady_clock::time_point{}) {
      // Whole-pipeline latency: first fragment contribution (wall
      // clock, stamped by the assembler) to localization done.
      const std::chrono::duration<double> e2e =
          std::chrono::steady_clock::now() - first_seen;
      metrics_.window_e2e_seconds->observe(e2e.count());
    }
  }
  if (localize_cb_) localize_cb_(out);
  return true;
}

void StreamEngine::awaitLocalizations() {
  std::unique_lock<std::mutex> lock(results_mutex_);
  localized_cv_.wait(lock, [this] { return windows_in_flight_ == 0; });
}

util::Result<io::StreamCheckpoint> StreamEngine::captureCheckpoint() {
  if (!running()) {
    return util::Status::failedPrecondition(
        "checkpoint() requires a running engine");
  }
  const std::uint64_t token =
      snapshot_token_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (auto& shard : shards_) shard->requestSnapshot(token);
  {
    std::unique_lock<std::mutex> lock(sealer_mutex_);
    drain_cv_.wait(lock,
                   [this, token] { return sealer_acked_snapshot_ >= token; });
  }
  // In-flight localizations finish before the cut is serialized, so a
  // restore never re-localizes a window this run already owned.
  awaitLocalizations();

  // RAPCHKPT-1 stores rows as element ids: unpack each leaf key.
  const dataset::CuboidMask leaves = dataset::allAttributesMask(schema_);
  const auto toRows = [this, leaves](const std::vector<LeafEvent>& events) {
    std::vector<dataset::LeafRow> rows;
    rows.reserve(events.size());
    for (const LeafEvent& event : events) {
      rows.push_back(dataset::LeafRow{
          dataset::combinationOfLeaf(schema_, event.leaf, leaves), event.v,
          event.f, /*anomalous=*/false});
    }
    return rows;
  };
  io::StreamCheckpoint checkpoint;
  checkpoint.shards = config_.shards;
  checkpoint.window_width = config_.window_width;
  checkpoint.max_event_ts = watermark_.maxTimestamp();
  checkpoint.shard_sealed_up_to.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const ShardState state = shards_[i]->snapshotState();
    checkpoint.shard_sealed_up_to[i] = state.sealed_up_to;
    for (const auto& [epoch, events] : state.open) {
      io::StreamCheckpoint::Fragment fragment;
      fragment.shard = static_cast<std::int32_t>(i);
      fragment.epoch = epoch;
      fragment.rows = toRows(events);
      checkpoint.fragments.push_back(std::move(fragment));
    }
  }
  for (const auto& [epoch, events] : assembler_.snapshotPending()) {
    io::StreamCheckpoint::Fragment fragment;
    fragment.shard = -1;
    fragment.epoch = epoch;
    fragment.rows = toRows(events);
    checkpoint.fragments.push_back(std::move(fragment));
  }
  return checkpoint;
}

util::Status StreamEngine::checkpoint(const std::string& path) {
  util::WallTimer timer;
  auto captured = captureCheckpoint();
  RAP_RETURN_IF_ERROR(captured.status());
  RAP_RETURN_IF_ERROR(io::saveStreamCheckpoint(captured.value(), path));
  RAP_LOG_KV(Info, {"path", path},
             {"fragments",
              static_cast<std::int64_t>(captured.value().fragments.size())},
             {"seconds", timer.elapsedSeconds()})
      << "stream checkpoint saved";
  return util::Status::ok();
}

util::Status StreamEngine::installCheckpoint(
    const io::StreamCheckpoint& checkpoint) {
  RAP_CHECK_MSG(!started_.load(), "restore only before start()");
  RAP_CHECK(checkpoint.shard_sealed_up_to.size() == shards_.size());
  if (checkpoint.max_event_ts != io::StreamCheckpoint::kNone) {
    watermark_.observe(checkpoint.max_event_ts);
  }
  std::vector<ShardState> states(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    states[i].sealed_up_to = checkpoint.shard_sealed_up_to[i];
  }
  for (const auto& fragment : checkpoint.fragments) {
    // Every row passes the ingest rules before it is encoded: the file
    // is outside input, and a bad slot would otherwise encode to a wrong
    // leaf or abort the table build at seal time.
    std::vector<LeafEvent> events;
    events.reserve(fragment.rows.size());
    for (std::size_t r = 0; r < fragment.rows.size(); ++r) {
      const dataset::LeafRow& row = fragment.rows[r];
      if (const char* reason = invalidReason(row.ac.slots(), row.v, row.f)) {
        return util::Status::invalidArgument(util::strFormat(
            "checkpoint fragment (shard %d, epoch %lld) row %zu: %s",
            fragment.shard, static_cast<long long>(fragment.epoch), r,
            reason));
      }
      // The checkpoint keeps no event times; bucketed rows never read
      // theirs again.
      events.push_back(
          LeafEvent{schema_.pack(row.ac.slots()), /*ts=*/0, row.v, row.f});
    }
    if (fragment.shard < 0) {
      // Already past the shards when checkpointed: contribute straight
      // to the assembler, pending the remaining shards' seals.  Older
      // files hold these rows in arrival order, so sort first.  The
      // originating shard is gone, so the fragment carries no flow lane.
      std::sort(events.begin(), events.end(), canonicalLess);
      assembler_.contribute(-1, fragment.epoch, std::move(events));
    } else {
      auto& open = states[static_cast<std::size_t>(fragment.shard)]
                       .open[fragment.epoch];
      open.insert(open.end(), events.begin(), events.end());
    }
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (states[i].sealed_up_to != WatermarkTracker::kNone) {
      assembler_.sealShardUpTo(static_cast<std::int32_t>(i),
                               states[i].sealed_up_to);
    }
    shards_[i]->restore(std::move(states[i]));
  }
  return util::Status::ok();
}

util::Result<std::unique_ptr<StreamEngine>> StreamEngine::restore(
    dataset::Schema schema, StreamConfig config, const std::string& path) {
  auto loaded = io::loadStreamCheckpoint(path);
  RAP_RETURN_IF_ERROR(loaded.status());
  const io::StreamCheckpoint& checkpoint = loaded.value();
  if (checkpoint.shards != config.shards) {
    return util::Status::invalidArgument(
        util::strFormat("checkpoint has %d shards, config wants %d",
                        checkpoint.shards, config.shards));
  }
  if (checkpoint.window_width != config.window_width) {
    return util::Status::invalidArgument(util::strFormat(
        "checkpoint window_width %lld does not match config %lld",
        static_cast<long long>(checkpoint.window_width),
        static_cast<long long>(config.window_width)));
  }
  auto engine = std::make_unique<StreamEngine>(std::move(schema), config);
  RAP_RETURN_IF_ERROR(engine->installCheckpoint(checkpoint));
  RAP_LOG_KV(
      Info, {"path", path},
      {"fragments", static_cast<std::int64_t>(checkpoint.fragments.size())},
      {"max_event_ts", checkpoint.max_event_ts})
      << "stream engine restored from checkpoint";
  return engine;
}

void StreamEngine::drain() {
  RAP_CHECK_MSG(started_.load(), "drain() requires a started engine");
  const std::uint64_t token =
      drain_token_.fetch_add(1, std::memory_order_acq_rel) + 1;
  for (auto& shard : shards_) shard->requestDrain(token);
  {
    std::unique_lock<std::mutex> lock(sealer_mutex_);
    drain_cv_.wait(lock, [this, token] { return sealer_acked_drain_ >= token; });
  }
  awaitLocalizations();
  // The hot path only touches these gauges when events move; refresh
  // them here so a scrape right after a drain sees the settled state
  // (depth 0, final watermark) instead of the last in-flight sample.
  if (obs::metricsEnabled()) {
    metrics_.queue_depth->set(static_cast<double>(
        counters_.queued.load(std::memory_order_relaxed)));
    metrics_.watermark->set(static_cast<double>(watermark_.watermark()));
  }
}

void StreamEngine::stop() {
  if (!started_.load() || stopped_.load()) return;
  if (lag_collector_) lag_collector_->stop();
  drain();
  stopped_.store(true, std::memory_order_release);
  for (auto& shard : shards_) shard->close();
  for (auto& shard : shards_) shard->join();
  {
    std::lock_guard<std::mutex> lock(sealer_mutex_);
    sealer_should_stop_ = true;
    progress_ = true;
  }
  sealer_cv_.notify_all();
  sealer_.join();
  awaitLocalizations();
  RAP_LOG_KV(Info, {"windows", windows_sealed_.load()},
             {"localizations", localizations_.load()})
      << "stream engine stopped";
}

StreamStats StreamEngine::stats() const {
  StreamStats stats;
  stats.ingested = counters_.ingested.load(std::memory_order_relaxed);
  stats.rejected = counters_.rejected.load(std::memory_order_relaxed);
  stats.rejected_quarantined = quarantine_.total();
  stats.quarantine_overflowed = quarantine_.overflowed();
  stats.dropped_oldest =
      counters_.dropped_oldest.load(std::memory_order_relaxed);
  stats.dropped_newest =
      counters_.dropped_newest.load(std::memory_order_relaxed);
  stats.late_admitted = counters_.late_admitted.load(std::memory_order_relaxed);
  stats.late_dropped = counters_.late_dropped.load(std::memory_order_relaxed);
  stats.windows_sealed = windows_sealed_.load(std::memory_order_relaxed);
  stats.windows_dropped = windows_dropped_.load(std::memory_order_relaxed);
  stats.alarms = alarms_.load(std::memory_order_relaxed);
  stats.localizations = localizations_.load(std::memory_order_relaxed);
  stats.localizations_degraded =
      localizations_degraded_.load(std::memory_order_relaxed);
  stats.localize_failures =
      localize_failures_.load(std::memory_order_relaxed);
  stats.localizations_overflowed =
      localizations_overflowed_.load(std::memory_order_relaxed);
  stats.queue_depth = counters_.queued.load(std::memory_order_relaxed);
  stats.watermark = watermark_.watermark();
  return stats;
}

std::vector<std::size_t> StreamEngine::shardQueueDepths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) depths.push_back(shard->queueDepth());
  return depths;
}

std::size_t StreamEngine::localizeInFlight() const {
  std::lock_guard<std::mutex> lock(results_mutex_);
  return windows_in_flight_;
}

std::vector<QuarantinedEvent> StreamEngine::takeQuarantined() {
  return quarantine_.take();
}

std::vector<StreamEngine::Localization> StreamEngine::takeLocalizations() {
  std::deque<Localization> taken;
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    taken.swap(results_);
  }
  std::vector<Localization> out(std::make_move_iterator(taken.begin()),
                                std::make_move_iterator(taken.end()));
  std::sort(out.begin(), out.end(),
            [](const Localization& a, const Localization& b) {
              return a.epoch < b.epoch;
            });
  return out;
}

}  // namespace rap::stream
