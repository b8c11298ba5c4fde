// Ingestion throughput harness for the streaming engine: N producer
// threads push healthy leaf events (v == f, so detection and alarming
// stay quiet) through the full shard/window/seal path and the harness
// reports aggregate rows/s plus the engine's counters.
//
// The event stream advances through event time as it goes, so windows
// seal continuously and queue growth stays bounded — the peak queue
// depth is sampled during the run and printed against total capacity.
//
//   $ ./stream_ingest [--rows N] [--producers N] [--shards N]
//                     [--capacity N] [--policy block|drop-oldest|drop-newest]
//                     [--metrics-out metrics.txt]
//
// Acceptance floor for the default shape (4 producers, 4 shards, block
// backpressure): >= 1M rows/s aggregate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "dataset/schema.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "util/flags.h"
#include "util/rng.h"

using namespace rap;

namespace {

bool parsePolicy(const std::string& name, stream::BackpressurePolicy* out) {
  if (name == "block") *out = stream::BackpressurePolicy::kBlock;
  else if (name == "drop-oldest") *out = stream::BackpressurePolicy::kDropOldest;
  else if (name == "drop-newest") *out = stream::BackpressurePolicy::kDropNewest;
  else return false;
  return true;
}

/// Only the streaming engine's families from the Prometheus snapshot.
std::string streamMetricLines() {
  std::istringstream all(obs::defaultRegistry().renderPrometheus());
  std::string out;
  std::string line;
  while (std::getline(all, line)) {
    if (line.find("rap_stream_") != std::string::npos) out += line + "\n";
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.addInt("rows", 4'000'000, "total events to ingest");
  flags.addInt("producers", 4, "concurrent producer threads");
  flags.addInt("shards", 4, "engine hash partitions");
  flags.addInt("capacity", 1 << 16, "per-shard queue capacity");
  flags.addString("policy", "block",
                  "backpressure: block | drop-oldest | drop-newest");
  flags.addDouble("lag-interval", 0.0,
                  "pipeline lag collector sample period in seconds "
                  "(0 = off); compare rows/s against 0 to measure the "
                  "collector's overhead");
  flags.addString("json-out", "BENCH_stream_ingest.json",
                  "result file ('' = don't write)");
  obs::addObsFlags(flags);
  if (auto status = flags.parse(argc, argv); !status.isOk()) {
    std::fprintf(stderr, "%s\n%s", status.toString().c_str(),
                 flags.helpText(argv[0]).c_str());
    return 2;
  }
  obs::enableFromFlags(flags);
  // The counters are part of this harness's report, flags or not.
  obs::setMetricsEnabled(true);

  stream::BackpressurePolicy policy;
  if (!parsePolicy(flags.getString("policy"), &policy)) {
    std::fprintf(stderr, "unknown --policy '%s'\n%s",
                 flags.getString("policy").c_str(),
                 flags.helpText(argv[0]).c_str());
    return 2;
  }

  const auto total = static_cast<std::size_t>(flags.getInt("rows"));
  const auto producers = static_cast<std::size_t>(flags.getInt("producers"));

  stream::StreamConfig config;
  config.shards = static_cast<std::int32_t>(flags.getInt("shards"));
  config.queue_capacity = static_cast<std::size_t>(flags.getInt("capacity"));
  config.backpressure = policy;
  config.window_width = 60;
  config.trigger = stream::TriggerPolicy::kOnAlarm;
  config.lag_sample_interval_seconds = flags.getDouble("lag-interval");

  // A pool of concrete Table I CDN leaves, reused round-robin; building
  // the event (leaf copy included) is part of the measured producer work,
  // exactly what a collector shipping rows into the engine would do.
  const auto schema = dataset::Schema::cdn();
  constexpr std::size_t kPoolSize = 4096;
  std::vector<dataset::AttributeCombination> pool;
  pool.reserve(kPoolSize);
  util::Rng rng(20220627);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    std::vector<dataset::ElemId> slots(
        static_cast<std::size_t>(schema.attributeCount()));
    for (std::size_t a = 0; a < slots.size(); ++a) {
      const auto attr = static_cast<dataset::AttrId>(a);
      slots[a] = static_cast<dataset::ElemId>(
          rng.uniformInt(0, schema.cardinality(attr) - 1));
    }
    pool.emplace_back(std::move(slots));
  }

  // Event time advances with the global index so windows seal as the run
  // progresses: ~64k events per window, tens of windows per run.
  constexpr std::size_t kEventsPerWindow = 1 << 16;
  const auto tsOf = [&](std::size_t i) {
    return static_cast<std::int64_t>(i / kEventsPerWindow) *
               config.window_width +
           static_cast<std::int64_t>(i % config.window_width);
  };

  stream::StreamEngine engine(schema, config);
  engine.start();

  std::printf("ingesting %zu rows from %zu producers into %d shards "
              "(policy=%s, capacity=%zu, lag-interval=%.3g)...\n",
              total, producers, config.shards,
              flags.getString("policy").c_str(), config.queue_capacity,
              config.lag_sample_interval_seconds);

  std::atomic<bool> running{true};
  std::atomic<std::int64_t> peak_depth{0};
  std::thread depth_sampler([&] {
    while (running.load(std::memory_order_acquire)) {
      const std::int64_t depth = engine.stats().queue_depth;
      std::int64_t peak = peak_depth.load(std::memory_order_relaxed);
      while (depth > peak &&
             !peak_depth.compare_exchange_weak(peak, depth)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  constexpr std::size_t kBatch = 512;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<stream::StreamEvent> batch;
      batch.reserve(kBatch);
      for (std::size_t i = p; i < total; i += producers) {
        stream::StreamEvent event;
        event.leaf = pool[i % kPoolSize];
        event.ts = tsOf(i);
        event.v = 100.0;
        event.f = 100.0;  // healthy: detector and alarm stay quiet
        batch.push_back(std::move(event));
        if (batch.size() == kBatch) {
          engine.ingestBatch(std::move(batch));
          batch.clear();
          batch.reserve(kBatch);
        }
      }
      if (!batch.empty()) engine.ingestBatch(std::move(batch));
    });
  }
  for (auto& t : threads) t.join();
  const auto offered_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  engine.stop();
  const auto drained_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  running.store(false, std::memory_order_release);
  depth_sampler.join();

  const auto stats = engine.stats();
  const double rows_per_s = static_cast<double>(total) / offered_elapsed;
  const std::int64_t total_capacity =
      static_cast<std::int64_t>(config.queue_capacity) * config.shards;
  std::printf("\noffered  %zu rows in %.3f s  ->  %.2fM rows/s aggregate\n",
              total, offered_elapsed, rows_per_s / 1e6);
  std::printf("drained  everything in %.3f s total\n", drained_elapsed);
  std::printf("peak queue depth %lld / %lld capacity  (final %lld)\n",
              static_cast<long long>(peak_depth.load()),
              static_cast<long long>(total_capacity),
              static_cast<long long>(stats.queue_depth));
  std::printf("ingested %llu  dropped_oldest %llu  dropped_newest %llu  "
              "windows %llu  alarms %llu  localizations %llu\n\n",
              static_cast<unsigned long long>(stats.ingested),
              static_cast<unsigned long long>(stats.dropped_oldest),
              static_cast<unsigned long long>(stats.dropped_newest),
              static_cast<unsigned long long>(stats.windows_sealed),
              static_cast<unsigned long long>(stats.alarms),
              static_cast<unsigned long long>(stats.localizations));
  std::printf("%s", streamMetricLines().c_str());
  (void)obs::dumpFromFlags(flags);

  const bool pass = rows_per_s >= 1e6;
  const std::string out_path = flags.getString("json-out");
  if (!out_path.empty()) {
    util::JsonWriter json;
    json.beginObject();
    json.key("bench");
    json.value("stream_ingest");
    json.key("rows");
    json.value(static_cast<std::int64_t>(total));
    json.key("producers");
    json.value(static_cast<std::int64_t>(producers));
    json.key("shards");
    json.value(static_cast<std::int64_t>(config.shards));
    json.key("queue_capacity");
    json.value(static_cast<std::int64_t>(config.queue_capacity));
    json.key("policy");
    json.value(flags.getString("policy"));
    json.key("lag_sample_interval_seconds");
    json.value(config.lag_sample_interval_seconds);
    json.key("offered_seconds");
    json.value(offered_elapsed);
    json.key("drained_seconds");
    json.value(drained_elapsed);
    json.key("rows_per_second");
    json.value(rows_per_s);
    json.key("peak_queue_depth");
    json.value(static_cast<std::int64_t>(peak_depth.load()));
    json.key("queue_capacity_total");
    json.value(total_capacity);
    json.key("ingested");
    json.value(static_cast<std::int64_t>(stats.ingested));
    json.key("dropped_oldest");
    json.value(static_cast<std::int64_t>(stats.dropped_oldest));
    json.key("dropped_newest");
    json.value(static_cast<std::int64_t>(stats.dropped_newest));
    json.key("windows_sealed");
    json.value(static_cast<std::int64_t>(stats.windows_sealed));
    json.key("floor_rows_per_second");
    json.value(1e6);
    json.key("pass");
    json.value(pass);
    bench::writeProvenance(json, static_cast<std::int64_t>(producers));
    json.endObject();
    std::ofstream out(out_path);
    out << std::move(json).str() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  return pass ? 0 : 1;
}
