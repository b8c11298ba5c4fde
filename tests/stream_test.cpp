// Streaming engine tests: queue backpressure policies, watermark and
// window-sealing semantics, and end-to-end stream-vs-batch localization
// equivalence.  The multi-producer tests double as the ThreadSanitizer
// targets of the CI tsan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <latch>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/rapminer.h"
#include "detect/detector.h"
#include "gen/rapmd.h"
#include "obs/metrics.h"
#include "stream/admin.h"
#include "stream/engine.h"
#include "stream/event.h"
#include "stream/lag_collector.h"
#include "stream/queue.h"
#include "stream/source.h"
#include "stream/watermark.h"
#include "stream/window.h"
#include "svc/json_value.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rap::stream {
namespace {

dataset::AttributeCombination leafAc(std::vector<dataset::ElemId> slots) {
  return dataset::AttributeCombination(std::move(slots));
}

StreamEvent makeEvent(std::vector<dataset::ElemId> slots, std::int64_t ts,
                      double v, double f) {
  StreamEvent event;
  event.leaf = leafAc(std::move(slots));
  event.ts = ts;
  event.v = v;
  event.f = f;
  return event;
}

/// Multiset fingerprint of a window's rows, independent of row order.
using RowKey = std::tuple<std::vector<dataset::ElemId>, double, double>;

std::multiset<RowKey> rowKeys(const dataset::LeafTable& table) {
  std::multiset<RowKey> keys;
  for (const auto& row : table.rows()) {
    keys.insert({row.ac.slots(), row.v, row.f});
  }
  return keys;
}

/// Thread-safe collector for sealed windows (callback runs on the sealer
/// thread) that tests can block on.
class WindowCollector {
 public:
  void install(StreamEngine& engine) {
    engine.setWindowCallback([this](const StreamEngine::WindowInfo& info) {
      std::lock_guard<std::mutex> lock(mutex_);
      windows_[info.epoch] = rowKeys(info.table);
      cv_.notify_all();
    });
  }

  void waitForWindowCount(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this, n] { return windows_.size() >= n; });
  }

  std::map<std::int64_t, std::multiset<RowKey>> windows() {
    std::lock_guard<std::mutex> lock(mutex_);
    return windows_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<std::int64_t, std::multiset<RowKey>> windows_;
};

// ---------------------------------------------------------------------------
// Event-time helpers.

TEST(EventTime, FloorDivRoundsTowardNegativeInfinity) {
  EXPECT_EQ(floorDiv(0, 60), 0);
  EXPECT_EQ(floorDiv(59, 60), 0);
  EXPECT_EQ(floorDiv(60, 60), 1);
  EXPECT_EQ(floorDiv(-1, 60), -1);
  EXPECT_EQ(floorDiv(-60, 60), -1);
  EXPECT_EQ(floorDiv(-61, 60), -2);
}

TEST(EventTime, EpochOfMatchesWindowBounds) {
  EXPECT_EQ(epochOf(0, 10), 0);
  EXPECT_EQ(epochOf(9, 10), 0);
  EXPECT_EQ(epochOf(10, 10), 1);
  EXPECT_EQ(epochOf(-5, 10), -1);
}

TEST(Watermark, LagsMaxTimestampByAllowedLateness) {
  WatermarkTracker tracker(/*allowed_lateness=*/5);
  EXPECT_EQ(tracker.watermark(), WatermarkTracker::kNone);
  EXPECT_EQ(tracker.sealableEpoch(60), WatermarkTracker::kNone);

  tracker.observe(64);
  EXPECT_EQ(tracker.maxTimestamp(), 64);
  EXPECT_EQ(tracker.watermark(), 59);
  // Watermark 59 is inside window 0, so nothing is sealable yet.
  EXPECT_EQ(tracker.sealableEpoch(60), -1);

  tracker.observe(65);
  EXPECT_EQ(tracker.watermark(), 60);
  EXPECT_EQ(tracker.sealableEpoch(60), 0);

  tracker.observe(40);  // out-of-order: watermark never regresses
  EXPECT_EQ(tracker.watermark(), 60);
}

// ---------------------------------------------------------------------------
// Bounded queue policies.

std::vector<LeafEvent> numberedEvents(int n) {
  std::vector<LeafEvent> events;
  for (int i = 0; i < n; ++i) {
    events.push_back(LeafEvent{0, i, static_cast<double>(i), 0.0});
  }
  return events;
}

TEST(BoundedEventQueue, DropOldestEvictsResidents) {
  BoundedEventQueue queue(4, BackpressurePolicy::kDropOldest);
  PushResult result = queue.pushMany(numberedEvents(8));
  EXPECT_EQ(result.accepted, 8u);
  EXPECT_EQ(result.dropped_oldest, 4u);
  EXPECT_EQ(result.dropped_newest, 0u);
  EXPECT_EQ(result.max_accepted_ts, 7);

  std::vector<LeafEvent> out;
  queue.drainNow(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].ts, 4 + i);
}

TEST(BoundedEventQueue, DropNewestRejectsArrivals) {
  BoundedEventQueue queue(4, BackpressurePolicy::kDropNewest);
  PushResult result = queue.pushMany(numberedEvents(8));
  EXPECT_EQ(result.accepted, 4u);
  EXPECT_EQ(result.dropped_newest, 4u);
  // The rejected tail must not advance the watermark.
  EXPECT_EQ(result.max_accepted_ts, 3);

  std::vector<LeafEvent> out;
  queue.drainNow(out);
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i].ts, i);
}

TEST(BoundedEventQueue, BlockWaitsForRoomAndLosesNothing) {
  BoundedEventQueue queue(2, BackpressurePolicy::kBlock);
  PushResult result;
  std::thread producer(
      [&] { result = queue.pushMany(numberedEvents(10)); });

  std::vector<LeafEvent> out;
  while (out.size() < 10) {
    std::vector<LeafEvent> chunk;
    ASSERT_TRUE(queue.drainOrWait(chunk));
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  producer.join();
  EXPECT_EQ(result.accepted, 10u);
  EXPECT_EQ(result.dropped_oldest + result.dropped_newest, 0u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i].ts, i);
}

TEST(BoundedEventQueue, CloseUnblocksProducerAndReportsDrops) {
  BoundedEventQueue queue(1, BackpressurePolicy::kBlock);
  ASSERT_EQ(queue.push(LeafEvent{0, 0, 0.0, 0.0}).accepted, 1u);

  PushResult result;
  std::thread producer(
      [&] { result = queue.pushMany(numberedEvents(3)); });
  // The producer is (or will be) blocked on a full queue; closing must
  // wake it and count its remaining events as rejected, not lose them
  // silently or deadlock.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  producer.join();
  EXPECT_EQ(result.accepted + result.dropped_newest, 3u);
  EXPECT_GE(result.dropped_newest, 1u);
}

TEST(BoundedEventQueue, ClosePushRaceLosesNoAccountedEvent) {
  // close() racing concurrent push()ers: every event must end up either
  // drained or in a drop counter — never lost, never double-counted —
  // and nobody may deadlock.  Run under TSan in CI.
  for (const BackpressurePolicy policy :
       {BackpressurePolicy::kBlock, BackpressurePolicy::kDropOldest,
        BackpressurePolicy::kDropNewest}) {
    BoundedEventQueue queue(8, policy);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> dropped_oldest{0};
    std::atomic<std::uint64_t> dropped_newest{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < kPerProducer; ++i) {
          const PushResult r =
              queue.push(LeafEvent{0, p * kPerProducer + i, 1.0, 1.0});
          accepted += r.accepted;
          dropped_oldest += r.dropped_oldest;
          dropped_newest += r.dropped_newest;
        }
      });
    }
    std::atomic<std::uint64_t> drained{0};
    std::thread consumer([&] {
      std::vector<LeafEvent> out;
      while (queue.drainOrWait(out)) {
        drained += out.size();
        out.clear();
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    queue.close();
    for (auto& t : producers) t.join();
    consumer.join();

    // Every push is accounted exactly once...
    EXPECT_EQ(accepted + dropped_newest,
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    // ...and every accepted event is either drained or was evicted.
    EXPECT_EQ(drained + dropped_oldest, accepted);
  }
}

TEST(BoundedEventQueue, PushAfterCloseIsRejected) {
  BoundedEventQueue queue(4, BackpressurePolicy::kBlock);
  queue.close();
  const PushResult r = queue.push(LeafEvent{0, 0, 1.0, 1.0});
  EXPECT_EQ(r.accepted, 0u);
  EXPECT_EQ(r.dropped_newest, 1u);
  std::vector<LeafEvent> out;
  EXPECT_FALSE(queue.drainOrWait(out));
  EXPECT_TRUE(out.empty());
}

TEST(BoundedEventQueue, CloseRacingNudgeAndDrainTerminates) {
  BoundedEventQueue queue(4, BackpressurePolicy::kBlock);
  std::thread nudger([&] {
    for (int i = 0; i < 1000; ++i) queue.nudge();
  });
  std::thread consumer([&] {
    std::vector<LeafEvent> out;
    while (queue.drainOrWait(out)) out.clear();
  });
  queue.close();
  nudger.join();
  consumer.join();  // must not hang on a missed close signal
  EXPECT_TRUE(queue.closed());
}

// ---------------------------------------------------------------------------
// Window assembly.

TEST(WindowAssembler, ReleasesEpochsInOrderOnceEveryShardSealed) {
  WindowAssembler assembler(/*shard_count=*/2, /*window_width=*/10);
  assembler.contribute(/*shard=*/0, /*epoch=*/0, {LeafEvent{0, 0, 1.0, 1.0}});
  assembler.contribute(/*shard=*/0, /*epoch=*/1, {LeafEvent{1, 10, 2.0, 2.0}});

  assembler.sealShardUpTo(0, 1);
  EXPECT_FALSE(assembler.hasReady());  // shard 1 has not sealed anything

  assembler.sealShardUpTo(1, 0);
  auto first = assembler.popReady();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->epoch, 0);
  EXPECT_EQ(first->start_ts, 0);
  EXPECT_EQ(first->end_ts, 10);
  ASSERT_EQ(first->rowCount(), 1u);
  EXPECT_FALSE(assembler.hasReady());  // epoch 1 still held back by shard 1

  assembler.sealShardUpTo(1, 1);
  auto second = assembler.popReady();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->epoch, 1);
  EXPECT_FALSE(assembler.popReady().has_value());
}

TEST(WindowAssembler, MergesFragmentsFromAllShards) {
  WindowAssembler assembler(3, 10);
  assembler.contribute(1, 5, {LeafEvent{1, 51, 2.0, 2.0}});
  assembler.contribute(
      0, 5, {LeafEvent{0, 50, 1.0, 1.0}, LeafEvent{2, 50, 3.0, 3.0}});
  assembler.contribute(
      2, 5, {LeafEvent{2, 52, 2.5, 3.0}, LeafEvent{3, 52, 0.0, 0.0}});
  for (std::int32_t shard = 0; shard < 3; ++shard) {
    assembler.sealShardUpTo(shard, 5);
  }
  auto window = assembler.popReady();
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->epoch, 5);
  // The sorted fragments merge into one canonical run.
  const dataset::LeafTable table =
      sealedTable(dataset::Schema::synthetic({4}), window->fragments);
  using Row = std::tuple<std::uint64_t, double, double>;
  std::vector<Row> rows;
  for (dataset::RowId r = 0; r < table.size(); ++r) {
    rows.emplace_back(table.key(r), table.v(r), table.f(r));
  }
  EXPECT_EQ(rows, (std::vector<Row>{{0, 1.0, 1.0},
                                    {1, 2.0, 2.0},
                                    {2, 2.5, 3.0},
                                    {2, 3.0, 3.0},
                                    {3, 0.0, 0.0}}));
  // The contributor list drives trace-flow termination in the sealer.
  EXPECT_EQ(window->contributors, (std::vector<std::int32_t>{0, 1, 2}));
}

/// Random sorted fragments over a {16, 16} schema: few distinct leaves
/// and values, so rows tie across fragments, -0.0 and 0.0 among them.
/// Each row's ts is unique, naming its fragment and position.
std::vector<std::vector<LeafEvent>> randomFragments(const dataset::Schema& schema,
                                                    std::size_t k,
                                                    util::Rng& rng) {
  constexpr double kValues[] = {-0.0, 0.0, 1.0, 2.5};
  std::vector<std::vector<LeafEvent>> fragments(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto rows = static_cast<std::size_t>(rng.uniformInt(0, 12));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<dataset::ElemId> slots = {
          static_cast<dataset::ElemId>(rng.uniformInt(0, 2)),
          static_cast<dataset::ElemId>(rng.uniformInt(0, 15))};
      fragments[i].push_back(
          {schema.pack(slots), static_cast<std::int64_t>(i * 1000 + r),
           kValues[rng.uniformInt(0, 3)], kValues[rng.uniformInt(0, 3)]});
    }
    std::sort(fragments[i].begin(), fragments[i].end(), canonicalLess);
  }
  return fragments;
}

/// A row with its doubles as bit patterns, so -0.0 and 0.0 differ.
using ExactRow = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

ExactRow exactRow(std::uint64_t leaf, double v, double f) {
  return {leaf, std::bit_cast<std::uint64_t>(v), std::bit_cast<std::uint64_t>(f)};
}

std::vector<ExactRow> exactRows(const dataset::LeafTable& table) {
  std::vector<ExactRow> rows;
  for (dataset::RowId r = 0; r < table.size(); ++r) {
    rows.push_back(exactRow(table.key(r), table.v(r), table.f(r)));
  }
  return rows;
}

TEST(WindowAssembler, MergeEqualsStableSortOfFragmentsInContributionOrder) {
  const auto schema = dataset::Schema::synthetic({16, 16});
  util::Rng rng(20220627);
  for (const std::size_t k : {1u, 2u, 4u, 7u, 64u, 1024u}) {
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(::testing::Message() << "k=" << k << " round " << round);
      const auto fragments = randomFragments(schema, k, rng);
      std::vector<LeafEvent> expected;
      for (const auto& fragment : fragments) {
        expected.insert(expected.end(), fragment.begin(), fragment.end());
      }
      std::stable_sort(expected.begin(), expected.end(), canonicalLess);
      std::vector<ExactRow> expected_rows;
      for (const LeafEvent& row : expected) {
        expected_rows.push_back(exactRow(row.leaf, row.v, row.f));
      }

      // Straight from the fragments, empty ones included.
      EXPECT_EQ(exactRows(sealedTable(schema, fragments)), expected_rows);

      // Through the assembler, which skips empty fragments.
      WindowAssembler assembler(static_cast<std::int32_t>(k), 10);
      for (std::size_t i = 0; i < k; ++i) {
        assembler.contribute(static_cast<std::int32_t>(i), 0, fragments[i]);
      }
      const auto pending = assembler.snapshotPending();
      if (expected.empty()) {
        EXPECT_TRUE(pending.empty());
      } else {
        ASSERT_EQ(pending.size(), 1u);
        const std::vector<LeafEvent>& snapshot = pending.at(0);
        ASSERT_EQ(snapshot.size(), expected.size());
        for (std::size_t r = 0; r < expected.size(); ++r) {
          // ts names the source row: ties keep contribution order.
          EXPECT_EQ(snapshot[r].ts, expected[r].ts) << "row " << r;
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        assembler.sealShardUpTo(static_cast<std::int32_t>(i), 0);
      }
      const auto window = assembler.popReady();
      ASSERT_EQ(window.has_value(), !expected.empty());
      if (window) {
        EXPECT_EQ(exactRows(sealedTable(schema, window->fragments)),
                  expected_rows);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine: window semantics.

StreamConfig testConfig() {
  StreamConfig config;
  config.shards = 3;
  config.window_width = 60;
  config.allowed_lateness = 0;
  config.trigger = TriggerPolicy::kAnomalousWindow;
  return config;
}

/// Healthy events (v == f) across `epochs` windows over a {4,3} schema.
std::vector<StreamEvent> healthyGrid(std::int64_t window_width,
                                     int epochs) {
  std::vector<StreamEvent> events;
  for (int e = 0; e < epochs; ++e) {
    for (dataset::ElemId a = 0; a < 4; ++a) {
      for (dataset::ElemId b = 0; b < 3; ++b) {
        const double value = 1.0 + a * 3 + b;
        events.push_back(makeEvent({a, b},
                                   e * window_width + (a * 3 + b) % window_width,
                                   value, value));
      }
    }
  }
  return events;
}

std::map<std::int64_t, std::multiset<RowKey>> groupByEpoch(
    const std::vector<StreamEvent>& events, std::int64_t window_width) {
  std::map<std::int64_t, std::multiset<RowKey>> grouped;
  for (const auto& e : events) {
    grouped[epochOf(e.ts, window_width)].insert({e.leaf.slots(), e.v, e.f});
  }
  return grouped;
}

TEST(StreamEngine, InOrderStreamMatchesBatchGrouping) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  const auto events = healthyGrid(config.window_width, 4);
  engine.ingestBatch(events);
  engine.drain();

  EXPECT_EQ(collector.windows(), groupByEpoch(events, config.window_width));
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.ingested, events.size());
  EXPECT_EQ(stats.windows_sealed, 4u);
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(stats.late_dropped, 0u);
  engine.stop();
}

TEST(StreamEngine, StatuszRendersEverySentinelAsNull) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamEngine engine(schema, testConfig());
  // The field of /statusz's "pipeline" object; a string if it is missing
  // or the document does not parse.
  const auto pipelineField = [&engine](std::string_view key) {
    const auto doc = svc::JsonValue::parse(renderStatusz(engine, nullptr));
    const svc::JsonValue* pipeline =
        doc.isOk() ? doc->find("pipeline") : nullptr;
    const svc::JsonValue* field =
        pipeline != nullptr ? pipeline->find(key) : nullptr;
    svc::JsonValue missing;
    missing.kind = svc::JsonValue::Kind::kString;
    return field != nullptr ? *field : missing;
  };
  engine.start();
  // Before any event: kNone.
  EXPECT_TRUE(pipelineField("sealed_frontier_epoch").isNull());
  EXPECT_TRUE(pipelineField("max_event_ts").isNull());

  const auto events = healthyGrid(testConfig().window_width, 3);
  engine.ingestBatch(events);
  // After a drain every window is flushed: the INT64_MAX frontier.
  engine.drain();
  ASSERT_EQ(engine.sealedFrontierEpoch(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_TRUE(pipelineField("sealed_frontier_epoch").isNull());
  EXPECT_EQ(pipelineField("max_event_ts").number_value,
            static_cast<double>(events.back().ts));
  engine.stop();
  EXPECT_TRUE(pipelineField("sealed_frontier_epoch").isNull());
}

TEST(StreamEngine, OutOfOrderAcrossProducersMatchesBatchGrouping) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.shards = 4;
  // Lateness beyond the stream's span: reordering can never cause drops,
  // so the stream must reduce to exact batch grouping.
  config.allowed_lateness = 1000000;
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  auto events = healthyGrid(config.window_width, 6);
  util::Rng rng(42);
  rng.shuffle(events);

  ReplaySource::Config replay;
  replay.producers = 4;
  replay.batch_size = 7;
  const PushResult result = ReplaySource(replay).run(engine, events);
  EXPECT_EQ(result.accepted, events.size());
  engine.drain();

  EXPECT_EQ(collector.windows(), groupByEpoch(events, config.window_width));
  engine.stop();
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.ingested, events.size());
  EXPECT_EQ(stats.late_dropped, 0u);
  EXPECT_EQ(stats.queue_depth, 0);
}

/// The batch reference for one window: its events as LeafRows sorted by
/// the lexicographic slot order windows were once sorted in, then
/// detected like the engine detects.
dataset::LeafTable batchTable(const dataset::Schema& schema,
                              std::vector<StreamEvent> events,
                              double detect_threshold) {
  std::vector<dataset::LeafRow> rows;
  for (auto& e : events) rows.push_back({std::move(e.leaf), e.v, e.f, false});
  std::sort(rows.begin(), rows.end(),
            [](const dataset::LeafRow& a, const dataset::LeafRow& b) {
              if (a.ac.slots() != b.ac.slots()) {
                return a.ac.slots() < b.ac.slots();
              }
              if (a.v != b.v) return a.v < b.v;
              return a.f < b.f;
            });
  dataset::LeafTable table(schema);
  for (auto& row : rows) table.addRow(std::move(row));
  detect::RelativeDeviationDetector(detect_threshold).run(table);
  return table;
}

TEST(StreamEngine, SealedTableMatchesRowLessBatchTableColumnByColumn) {
  const auto schema = dataset::Schema::synthetic({5, 4, 3});
  StreamConfig config = testConfig();
  config.shards = 4;
  config.allowed_lateness = 1000000;
  StreamEngine engine(schema, config);
  std::mutex mutex;
  std::map<std::int64_t, dataset::LeafTable> sealed;
  engine.setWindowCallback([&](const StreamEngine::WindowInfo& info) {
    std::lock_guard<std::mutex> lock(mutex);
    sealed.emplace(info.epoch, info.table);
  });
  engine.start();

  // Every leaf once per window, plus duplicates that differ only in v or
  // only in f, exact duplicates, and some failing leaves for detection.
  util::Rng rng(5);
  std::vector<StreamEvent> events;
  std::map<std::int64_t, std::vector<StreamEvent>> by_epoch;
  for (std::int64_t e = 0; e < 3; ++e) {
    for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
      const auto leaf = dataset::leafFromIndex(schema, i);
      const double f = static_cast<double>(rng.uniformInt(1, 4)) * 10.0;
      const double v = rng.bernoulli(0.1) ? f * 0.5 : f;
      std::vector<StreamEvent> copies{makeEvent(leaf.slots(), 0, v, f)};
      if (rng.bernoulli(0.3)) {
        copies.push_back(makeEvent(leaf.slots(), 0, v + 1.0, f));
      }
      if (rng.bernoulli(0.3)) {
        copies.push_back(makeEvent(leaf.slots(), 0, v, f + 1.0));
      }
      if (rng.bernoulli(0.2)) copies.push_back(copies.front());
      for (auto& event : copies) {
        event.ts = e * config.window_width +
                   rng.uniformInt(0, config.window_width - 1);
        by_epoch[e].push_back(event);
        events.push_back(std::move(event));
      }
    }
  }
  rng.shuffle(events);
  ReplaySource::Config replay;
  replay.producers = 3;
  replay.batch_size = 11;
  EXPECT_EQ(ReplaySource(replay).run(engine, events).accepted, events.size());
  engine.drain();
  engine.stop();

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(sealed.size(), by_epoch.size());
  for (auto& [epoch, window_events] : by_epoch) {
    const dataset::LeafTable batch =
        batchTable(schema, window_events, config.detect_threshold);
    const dataset::LeafTable& got = sealed.at(epoch);
    ASSERT_EQ(got.size(), batch.size()) << "epoch " << epoch;
    EXPECT_GT(batch.anomalousCount(), 0u);
    for (dataset::RowId r = 0; r < batch.size(); ++r) {
      for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
        ASSERT_EQ(got.elem(r, a), batch.elem(r, a))
            << "epoch " << epoch << " row " << r << " attr " << a;
      }
      ASSERT_EQ(got.v(r), batch.v(r)) << "epoch " << epoch << " row " << r;
      ASSERT_EQ(got.f(r), batch.f(r)) << "epoch " << epoch << " row " << r;
      ASSERT_EQ(got.isAnomalous(r), batch.isAnomalous(r));
    }
  }
}

TEST(StreamEngine, LateEventWithinLatenessIsAdmitted) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.shards = 1;
  config.window_width = 10;
  config.allowed_lateness = 20;
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  // max_ts 39 -> watermark 19 -> only epoch 0 sealable.  ts=12 then
  // arrives behind the watermark but its window (epoch 1) is still open.
  engine.ingest(makeEvent({0, 0}, 5, 1.0, 1.0));
  engine.ingest(makeEvent({1, 0}, 39, 1.0, 1.0));
  engine.ingest(makeEvent({2, 0}, 12, 1.0, 1.0));
  engine.drain();

  const auto windows = collector.windows();
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_EQ(windows.at(1).size(), 1u);
  EXPECT_EQ(windows.at(1).count({{2, 0}, 1.0, 1.0}), 1u);
  const StreamStats stats = engine.stats();
  // ts=12 was queued after the watermark reached 19, so it is counted
  // late for certain; ts=5 may also count if the consumer bucketed it
  // only after the watermark moved (the counter reflects the watermark
  // at processing time — telemetry, not an admission decision).
  EXPECT_GE(stats.late_admitted, 1u);
  EXPECT_EQ(stats.late_dropped, 0u);
  engine.stop();
}

TEST(StreamEngine, LateEventForSealedWindowIsDroppedAndCounted) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.shards = 1;
  config.window_width = 10;
  config.allowed_lateness = 0;
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  engine.ingest(makeEvent({0, 0}, 5, 1.0, 1.0));
  engine.ingest(makeEvent({1, 0}, 15, 1.0, 1.0));
  engine.ingest(makeEvent({2, 0}, 25, 1.0, 1.0));
  // Watermark 25 seals epochs 0 and 1; wait until both windows actually
  // emerged so the late arrival below races nothing.
  collector.waitForWindowCount(2);

  engine.ingest(makeEvent({3, 0}, 7, 9.0, 9.0));  // epoch 0: sealed
  engine.drain();

  const auto windows = collector.windows();
  ASSERT_EQ(windows.count(0), 1u);
  EXPECT_EQ(windows.at(0).size(), 1u);  // the late row never made it in
  EXPECT_EQ(windows.at(0).count({{0, 0}, 1.0, 1.0}), 1u);
  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.late_dropped, 1u);
  engine.stop();
}

TEST(StreamEngine, InOrderProducerWithZeroLatenessSealsFullWindows) {
  // Stress for the watermark-seal race: one in-order producer, one
  // event per ingest call, many small windows.  Every event of window w
  // is queued before the first event of w + 1 advances the watermark,
  // so none may be dropped as late and every window must seal whole.
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.shards = 1;
  config.window_width = 12;  // healthyGrid puts its 12 leaves at ts 0..11
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  constexpr int kWindows = 400;
  const auto events = healthyGrid(config.window_width, kWindows);
  for (const auto& event : events) engine.ingest(event);
  engine.drain();

  const auto windows = collector.windows();
  ASSERT_EQ(windows.size(), static_cast<std::size_t>(kWindows));
  for (const auto& [epoch, rows] : windows) {
    EXPECT_EQ(rows.size(), 12u) << "epoch " << epoch;
  }
  EXPECT_EQ(engine.stats().late_dropped, 0u);
  engine.stop();
}

TEST(StreamEngine, StopDrainsBufferedWindows) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  // Nothing would seal by watermark: lateness far exceeds the stream.
  config.allowed_lateness = 1000000;
  StreamEngine engine(schema, config);
  WindowCollector collector;
  collector.install(engine);
  engine.start();

  const auto events = healthyGrid(config.window_width, 3);
  engine.ingestBatch(events);
  EXPECT_EQ(engine.stats().windows_sealed, 0u);
  engine.stop();  // drain-at-shutdown must flush every open window

  EXPECT_EQ(collector.windows(), groupByEpoch(events, config.window_width));
  EXPECT_EQ(engine.stats().windows_sealed, 3u);
}

TEST(StreamEngine, MalformedEventsAreRejectedNotFatal) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamEngine engine(schema, testConfig());
  engine.start();

  std::vector<StreamEvent> bad;
  bad.push_back(makeEvent({0}, 0, 1.0, 1.0));       // wrong arity
  bad.push_back(makeEvent({0, -1}, 0, 1.0, 1.0));   // wildcard slot
  bad.push_back(makeEvent({4, 0}, 0, 1.0, 1.0));    // out of range
  bad.push_back(makeEvent({3, 2}, 0, 1.0, 1.0));    // valid
  const PushResult result = engine.ingestBatch(std::move(bad));
  EXPECT_EQ(result.accepted, 1u);
  engine.stop();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, 3u);
  EXPECT_EQ(stats.ingested, 1u);
  EXPECT_EQ(stats.windows_sealed, 1u);
}

TEST(StreamEngine, InvalidEventsAreQuarantinedWithReasons) {
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.quarantine_capacity = 2;  // exercise the bounded-eviction path
  StreamEngine engine(schema, config);
  std::atomic<int> inspected{0};
  engine.setQuarantineCallback(
      [&inspected](const QuarantinedEvent& entry) {
        EXPECT_FALSE(entry.reason.empty());
        inspected += 1;
      });
  engine.start();

  std::vector<StreamEvent> bad;
  bad.push_back(makeEvent({0}, 0, 1.0, 1.0));  // wrong arity
  bad.push_back(makeEvent({0, -1}, 10, 1.0, 1.0));  // wildcard slot
  bad.push_back(makeEvent({3, 2}, 20, std::nan(""), 1.0));  // NaN value
  bad.push_back(
      makeEvent({3, 2}, 30, 1.0,
                std::numeric_limits<double>::infinity()));  // Inf forecast
  bad.push_back(makeEvent({3, 2}, 40, 1.0, 1.0));  // valid
  const PushResult result = engine.ingestBatch(std::move(bad));
  EXPECT_EQ(result.accepted, 1u);
  engine.stop();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, 4u);
  EXPECT_EQ(stats.rejected_quarantined, 4u);
  EXPECT_EQ(stats.quarantine_overflowed, 2u);  // capacity 2, 4 added
  EXPECT_EQ(inspected.load(), 4);

  // Only the newest two survive in the bounded buffer, oldest first.
  const auto quarantined = engine.takeQuarantined();
  ASSERT_EQ(quarantined.size(), 2u);
  EXPECT_EQ(quarantined[0].reason, "non-finite actual value");
  EXPECT_EQ(quarantined[1].reason, "non-finite forecast value");
  EXPECT_TRUE(engine.takeQuarantined().empty());
}

// ---------------------------------------------------------------------------
// Engine: stream-vs-batch localization equivalence.

TEST(StreamEngine, LocalizationMatchesBatchPipeline) {
  const auto schema = dataset::Schema::synthetic({6, 5, 4});
  gen::RapmdConfig gen_config;
  gen_config.num_cases = 3;
  gen_config.label_noise = 0.0;
  gen::RapmdGenerator generator(schema, gen_config, /*seed=*/7);

  StreamConfig config;
  config.shards = 4;
  config.window_width = 60;
  config.allowed_lateness = 1000000;  // reordering must not drop anything
  config.trigger = TriggerPolicy::kAnomalousWindow;
  config.detect_threshold = 0.095;
  StreamEngine engine(schema, config);
  engine.start();

  // One case per window; the batch reference runs the same detector +
  // miner on each case's table directly.
  std::vector<StreamEvent> events;
  std::vector<std::multiset<std::vector<dataset::ElemId>>> expected;
  const detect::RelativeDeviationDetector detector(config.detect_threshold);
  const core::RapMiner miner(config.miner);
  for (std::int32_t i = 0; i < gen_config.num_cases; ++i) {
    gen::Case c = generator.generateCase(i);
    dataset::LeafTable batch_table = c.table;
    detector.run(batch_table);
    std::multiset<std::vector<dataset::ElemId>> acs;
    for (const auto& p : miner.localize(batch_table, config.top_k).patterns) {
      acs.insert(p.ac.slots());
    }
    expected.push_back(std::move(acs));

    CaseEventsConfig source;
    source.epoch = i;
    source.window_width = config.window_width;
    source.shuffle_seed = 100 + static_cast<std::uint64_t>(i);
    auto case_events = eventsFromCase(c, source);
    events.insert(events.end(), case_events.begin(), case_events.end());
  }
  util::Rng rng(9);
  rng.shuffle(events);

  ReplaySource::Config replay;
  replay.producers = 4;
  replay.batch_size = 64;
  const PushResult result = ReplaySource(replay).run(engine, events);
  EXPECT_EQ(result.accepted, events.size());
  engine.drain();
  engine.stop();

  const auto localizations = engine.takeLocalizations();
  ASSERT_EQ(localizations.size(), expected.size());
  for (std::size_t i = 0; i < localizations.size(); ++i) {
    EXPECT_EQ(localizations[i].epoch, static_cast<std::int64_t>(i));
    EXPECT_GT(localizations[i].anomalous_rows, 0u);
    std::multiset<std::vector<dataset::ElemId>> got;
    for (const auto& p : localizations[i].result.patterns) {
      got.insert(p.ac.slots());
    }
    EXPECT_EQ(got, expected[i]) << "window " << i;
  }
}

TEST(StreamEngine, EnginesSharingAPoolDrainOnlyTheirOwnWindows) {
  // Two engines localize on one 2-worker pool and A's localization
  // blocks.  B's drain waits for B's windows, not for the pool: a
  // barrier on the whole pool would hang here.
  util::ThreadPool pool(2);
  std::atomic<int> a_entered{0};
  std::latch release_a(1);  // outlives the engines, whose stop() needs it
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.trigger = TriggerPolicy::kEveryWindow;
  config.shared_pool = &pool;
  StreamEngine a(schema, config);
  StreamEngine b(schema, config);
  EXPECT_EQ(a.localizeThreads(), 2u);
  a.setLocalizationCallback([&](const StreamEngine::Localization&) {
    a_entered.fetch_add(1);
    release_a.wait();
  });
  a.start();
  b.start();

  // Epoch 1's events seal epoch 0, whose localization then blocks.
  a.ingestBatch(healthyGrid(config.window_width, 2));
  for (int i = 0; i < 5000 && a_entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(a_entered.load(), 1);

  b.ingestBatch(healthyGrid(config.window_width, 3));
  b.drain();
  EXPECT_EQ(b.takeLocalizations().size(), 3u);
  EXPECT_EQ(b.localizeInFlight(), 0u);
  EXPECT_EQ(a.localizeInFlight(), 1u);

  release_a.count_down();
  a.stop();
  EXPECT_EQ(a.localizeInFlight(), 0u);
  EXPECT_EQ(a.takeLocalizations().size(), 2u);
  b.stop();
}

TEST(StreamEngine, WindowBacklogOnASharedPoolTakesTurnsWithOtherTasks) {
  // One engine floods a 2-worker pool with windows while another owner
  // submits one task.  Only localize_threads windows sit on the pool at
  // once, so the task runs while the backlog is still waiting.  Windows
  // past the first two block until it has run: had the whole backlog
  // queued ahead of it, they would hold both workers until the deadline.
  util::ThreadPool pool(2);
  constexpr int kWindows = 20;
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.trigger = TriggerPolicy::kEveryWindow;
  config.shared_pool = &pool;
  std::latch release(1);
  std::atomic<int> delivered{0};
  std::atomic<bool> task_ran{false};
  std::atomic<bool> starved{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  StreamEngine engine(schema, config);
  engine.setLocalizationCallback([&](const StreamEngine::Localization&) {
    release.wait();
    if (delivered.fetch_add(1) < 2) return;
    while (!task_ran.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        starved.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  engine.start();

  // kWindows + 1 epochs seal kWindows windows, all dispatched while the
  // first two block on the latch.
  engine.ingestBatch(healthyGrid(config.window_width, kWindows + 1));
  for (int i = 0; i < 5000 && engine.localizeInFlight() < kWindows; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(engine.localizeInFlight(), static_cast<std::size_t>(kWindows));
  EXPECT_EQ(pool.inFlight(), 2u);

  std::atomic<std::size_t> waiting_at_task{0};
  std::latch task_done(1);
  pool.submit([&] {
    waiting_at_task.store(engine.localizeInFlight());
    task_ran.store(true);
    task_done.count_down();
  });
  release.count_down();
  task_done.wait();
  engine.stop();
  EXPECT_FALSE(starved.load());
  EXPECT_GE(waiting_at_task.load(), static_cast<std::size_t>(kWindows - 2));
  // stop() drains the open epoch too.
  EXPECT_EQ(engine.takeLocalizations().size(),
            static_cast<std::size_t>(kWindows + 1));
}

TEST(StreamEngine, UntakenLocalizationsKeepTheNewestAndCountTheRest) {
  // Nobody takes the results, as under a served tenant: the engine keeps
  // the newest kMaxUntakenLocalizations and counts every one it evicts.
  constexpr std::size_t kCap = StreamEngine::kMaxUntakenLocalizations;
  constexpr std::size_t kExtra = 7;
  const auto schema = dataset::Schema::synthetic({4, 3});
  StreamConfig config = testConfig();
  config.shards = 1;
  config.trigger = TriggerPolicy::kEveryWindow;
  config.localize_threads = 1;  // windows deliver in epoch order
  StreamEngine engine(schema, config);
  engine.start();
  std::vector<StreamEvent> events;
  for (std::size_t e = 0; e < kCap + kExtra; ++e) {
    events.push_back(makeEvent(
        {0, 0}, static_cast<std::int64_t>(e) * config.window_width, 1.0, 1.0));
  }
  engine.ingestBatch(std::move(events));
  engine.drain();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.localizations, kCap + kExtra);
  EXPECT_EQ(stats.localizations_overflowed, kExtra);
  const auto kept = engine.takeLocalizations();
  ASSERT_EQ(kept.size(), kCap);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    ASSERT_EQ(kept[i].epoch, static_cast<std::int64_t>(kExtra + i));
  }
  EXPECT_TRUE(engine.takeLocalizations().empty());
  engine.stop();
}

// ---------------------------------------------------------------------------
// Engine: concurrency hammer (the ThreadSanitizer target).

TEST(StreamEngine, ManyProducersWithDropsAndMetricsStayConsistent) {
  obs::setMetricsEnabled(true);
  const auto schema = dataset::Schema::synthetic({8, 8});
  StreamConfig config;
  config.shards = 4;
  config.window_width = 100;
  config.allowed_lateness = 50;
  // Far below one ingest batch's per-shard share (~32 of 128 events), so
  // eviction is exercised deterministically, not by racing the consumer.
  config.queue_capacity = 16;
  config.backpressure = BackpressurePolicy::kDropOldest;
  config.trigger = TriggerPolicy::kAnomalousWindow;
  StreamEngine engine(schema, config);
  engine.start();

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 4000;
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> offered{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, &offered, p] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(p));
      std::vector<StreamEvent> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        const auto a = static_cast<dataset::ElemId>(rng.uniformInt(0, 7));
        const auto b = static_cast<dataset::ElemId>(rng.uniformInt(0, 7));
        batch.push_back(
            makeEvent({a, b}, rng.uniformInt(0, 999), 2.0, 2.0));
        if (batch.size() == 128) {
          offered.fetch_add(batch.size());
          engine.ingestBatch(std::move(batch));
          batch.clear();
        }
      }
      if (!batch.empty()) {
        offered.fetch_add(batch.size());
        engine.ingestBatch(std::move(batch));
      }
      // Interleave a malformed event to exercise rejection under load.
      engine.ingest(makeEvent({99, 0}, 0, 1.0, 1.0));
    });
  }
  for (auto& t : producers) t.join();
  engine.stop();
  obs::setMetricsEnabled(false);

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, static_cast<std::uint64_t>(kProducers));
  // Arrival accounting: every offered event was either accepted into a
  // queue (kDropOldest admits all arrivals) or rejected on arrival.
  EXPECT_EQ(stats.ingested + stats.dropped_newest, offered.load());
  EXPECT_GT(stats.dropped_oldest, 0u);  // the tiny queues did overflow
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_GE(stats.windows_sealed, 1u);
  // Healthy traffic under kAnomalousWindow: sealing never localizes.
  EXPECT_EQ(stats.localizations, 0u);

  auto& reg = obs::defaultRegistry();
  EXPECT_GE(reg.counter("rap_stream_ingested_total").value(), stats.ingested);
  EXPECT_GE(reg.counter("rap_stream_windows_sealed_total").value(),
            stats.windows_sealed);
  EXPECT_EQ(reg.gauge("rap_stream_queue_depth").value(), 0.0);
}

// ---------------------------------------------------------------------------
// Gauge freshness and the pipeline lag collector.

TEST(StreamEngine, DrainRefreshesDepthAndWatermarkGauges) {
  obs::setMetricsEnabled(true);
  StreamConfig config = testConfig();
  StreamEngine engine(dataset::Schema::synthetic({4, 3}), config);
  engine.start();
  for (auto& event : healthyGrid(config.window_width, 3)) {
    engine.ingest(std::move(event));
  }
  engine.drain();

  // The drain itself must leave the gauges matching stats(), even though
  // no event moved after the last hot-path update.
  const StreamStats stats = engine.stats();
  auto& reg = obs::defaultRegistry();
  EXPECT_EQ(stats.queue_depth, 0);
  EXPECT_EQ(reg.gauge("rap_stream_queue_depth").value(), 0.0);
  EXPECT_EQ(reg.gauge("rap_stream_watermark").value(),
            static_cast<double>(stats.watermark));
  engine.stop();
  obs::setMetricsEnabled(false);
}

TEST(PipelineLagCollector, SampleOncePublishesFreshGauges) {
  obs::MetricsRegistry registry;
  StreamConfig config = testConfig();
  config.allowed_lateness = 30;
  StreamEngine engine(dataset::Schema::synthetic({4, 3}), config);
  PipelineLagCollector::Options options;
  options.interval_seconds = 60.0;  // never fires; sampled by hand
  options.registry = &registry;
  PipelineLagCollector collector(engine, options);

  // Before any event: an idle pipeline reports zero lag, zero depth.
  collector.sampleOnce();
  EXPECT_EQ(collector.samplesTaken(), 1u);
  EXPECT_EQ(registry.gauge("rap_stream_watermark_lag_seconds").value(), 0.0);
  EXPECT_EQ(registry.gauge("rap_stream_queue_depth").value(), 0.0);
  for (std::int32_t i = 0; i < config.shards; ++i) {
    EXPECT_EQ(registry
                  .gauge("rap_stream_shard_queue_depth",
                         {{"shard", std::to_string(i)}})
                  .value(),
              0.0);
  }

  engine.start();
  for (auto& event : healthyGrid(config.window_width, 3)) {
    engine.ingest(std::move(event));
  }
  engine.drain();
  collector.sampleOnce();

  // After a full drain every epoch is sealed, so the sealed frontier has
  // caught up with the ingest frontier: lag is 0, depths are 0, and the
  // gauges agree with stats() exactly.
  const StreamStats stats = engine.stats();
  EXPECT_EQ(registry.gauge("rap_stream_watermark_lag_seconds").value(), 0.0);
  EXPECT_EQ(registry.gauge("rap_stream_queue_depth").value(),
            static_cast<double>(stats.queue_depth));
  EXPECT_EQ(registry.gauge("rap_stream_watermark").value(),
            static_cast<double>(stats.watermark));
  EXPECT_EQ(registry.gauge("rap_stream_localize_pool_in_flight").value(), 0.0);
  EXPECT_EQ(registry.gauge("rap_stream_localize_pool_utilization").value(),
            0.0);
  EXPECT_EQ(collector.samplesTaken(), 2u);
  engine.stop();
}

TEST(PipelineLagCollector, ReportsEventTimeLagWhileSealingIsBehind) {
  obs::MetricsRegistry registry;
  StreamConfig config = testConfig();
  config.shards = 1;
  config.allowed_lateness = 0;
  StreamEngine engine(dataset::Schema::synthetic({4, 3}), config);
  PipelineLagCollector::Options options;
  options.interval_seconds = 60.0;
  options.registry = &registry;
  PipelineLagCollector collector(engine, options);

  engine.start();
  engine.ingest(makeEvent({0, 0}, 119, 1.0, 1.0));  // epoch 1 of width 60
  // Wait until the shard has observed the event and set the watermark.
  for (int i = 0;
       i < 1000 && engine.stats().watermark == WatermarkTracker::kNone; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  collector.sampleOnce();
  // The watermark sits at 119 while sealing can reach at most the end of
  // epoch 0 (event time 60): 59 seconds of event time are buffered
  // unsealed.  The value is the same whether or not the shard has sealed
  // epoch 0 yet, so the assertion is race-free.
  EXPECT_DOUBLE_EQ(registry.gauge("rap_stream_watermark_lag_seconds").value(),
                   119.0 - 60.0);
  engine.stop();
}

TEST(StreamEngine, OwnsLagCollectorWhenConfigured) {
  obs::setMetricsEnabled(true);
  StreamConfig config = testConfig();
  config.lag_sample_interval_seconds = 0.001;
  StreamEngine engine(dataset::Schema::synthetic({4, 3}), config);
  engine.start();
  for (auto& event : healthyGrid(config.window_width, 2)) {
    engine.ingest(std::move(event));
  }
  engine.drain();
  // Let the background sampler tick at least once against live state.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  engine.stop();
  obs::setMetricsEnabled(false);
  auto& reg = obs::defaultRegistry();
  // The engine-owned collector published the per-shard depth series.
  EXPECT_EQ(reg.gauge("rap_stream_shard_queue_depth", {{"shard", "0"}})
                .value(),
            0.0);
}

}  // namespace
}  // namespace rap::stream
