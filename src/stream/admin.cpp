#include "stream/admin.h"

#include <chrono>
#include <cstdint>
#include <limits>

#include "obs/build_info.h"
#include "stream/watermark.h"
#include "util/json_writer.h"

namespace rap::stream {

namespace {

const char* backpressureName(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kDropOldest:
      return "drop_oldest";
    case BackpressurePolicy::kDropNewest:
      return "drop_newest";
  }
  return "unknown";
}

const char* triggerName(TriggerPolicy policy) {
  switch (policy) {
    case TriggerPolicy::kOnAlarm:
      return "on_alarm";
    case TriggerPolicy::kAnomalousWindow:
      return "anomalous_window";
    case TriggerPolicy::kEveryWindow:
      return "every_window";
  }
  return "unknown";
}

}  // namespace

std::string renderStatusz(const StreamEngine& engine,
                          const obs::AdminServer* server) {
  const StreamStats stats = engine.stats();
  const StreamConfig& config = engine.config();
  util::JsonWriter w;
  // Event-time fields carry two sentinels, both rendered as JSON null so
  // a dashboard never mistakes one for a timestamp: kNone (INT64_MIN)
  // before anything was seen or sealed, and INT64_MAX for the sealed
  // frontier once a drain or shutdown has flushed every window.
  const auto timestamp = [&w](const char* key, std::int64_t value) {
    w.key(key);
    if (value == WatermarkTracker::kNone ||
        value == std::numeric_limits<std::int64_t>::max()) {
      w.nullValue();
    } else {
      w.value(value);
    }
  };

  w.beginObject();
  w.field("running", engine.running());
  double uptime = 0.0;
  if (engine.startTime() != std::chrono::steady_clock::time_point{}) {
    const std::chrono::duration<double> up =
        std::chrono::steady_clock::now() - engine.startTime();
    uptime = up.count();
  }
  w.field("uptime_seconds", uptime, util::NumberFormat::kFixed3);
  w.key("build");
  w.embed(obs::buildInfoJson());

  w.beginObject("stats");
  w.field("ingested", stats.ingested);
  w.field("rejected", stats.rejected);
  w.field("rejected_quarantined", stats.rejected_quarantined);
  w.field("quarantine_overflowed", stats.quarantine_overflowed);
  w.field("dropped_oldest", stats.dropped_oldest);
  w.field("dropped_newest", stats.dropped_newest);
  w.field("late_admitted", stats.late_admitted);
  w.field("late_dropped", stats.late_dropped);
  w.field("windows_sealed", stats.windows_sealed);
  w.field("windows_dropped", stats.windows_dropped);
  w.field("alarms", stats.alarms);
  w.field("localizations", stats.localizations);
  w.field("localizations_degraded", stats.localizations_degraded);
  w.field("localize_failures", stats.localize_failures);
  w.field("localizations_overflowed", stats.localizations_overflowed);
  w.field("queue_depth", stats.queue_depth);
  timestamp("watermark", stats.watermark);
  w.endObject();

  w.beginObject("pipeline");
  timestamp("max_event_ts", engine.maxEventTimestamp());
  timestamp("sealed_frontier_epoch", engine.sealedFrontierEpoch());
  w.beginArray("shard_queue_depths");
  for (const std::size_t depth : engine.shardQueueDepths()) w.value(depth);
  w.endArray();
  w.field("localize_in_flight", engine.localizeInFlight());
  w.field("localize_threads", engine.localizeThreads());
  w.endObject();

  constexpr auto kG9 = util::NumberFormat::kG9;
  w.beginObject("config");
  w.field("shards", config.shards);
  w.field("queue_capacity", config.queue_capacity);
  w.field("backpressure", backpressureName(config.backpressure));
  w.field("window_width", config.window_width);
  w.field("allowed_lateness", config.allowed_lateness);
  w.field("trigger", triggerName(config.trigger));
  w.field("detect_threshold", config.detect_threshold, kG9);
  w.field("detect_two_sided", config.detect_two_sided);
  w.field("top_k", config.top_k);
  w.field("localize_deadline_seconds", config.localize_deadline_seconds, kG9);
  w.field("quarantine_capacity", config.quarantine_capacity);
  w.field("lag_sample_interval_seconds", config.lag_sample_interval_seconds,
          kG9);
  w.endObject();

  if (server != nullptr) {
    w.beginObject("admin");
    w.field("requests_served", server->requestsServed());
    w.endObject();
  }
  w.endObject();
  return std::move(w).str();
}

void installEngineAdminEndpoints(obs::AdminServer& server,
                                 const StreamEngine& engine) {
  server.handle("/healthz", [&engine](const obs::HttpRequest&) {
    obs::HttpResponse response;
    if (engine.running()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = "stream engine stopped\n";
    }
    return response;
  });
  server.handle("/statusz", [&engine, &server](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = renderStatusz(engine, &server) + "\n";
    return response;
  });
}

}  // namespace rap::stream
