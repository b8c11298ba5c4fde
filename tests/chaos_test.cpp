// Chaos suite: fault injection, degraded search, checkpoint/restore.
//
// Three tiers:
//   * registry semantics — exercise rap::fault directly, so they run in
//     every build (the Registry is always compiled; only the macro call
//     sites are gated);
//   * resilience without faults — deadline/layer-cap degradation and
//     checkpoint/restore are plain features and always run;
//   * injected chaos — tests that arm the macro call sites GTEST_SKIP
//     unless the build carries them (cmake -DRAP_FAULT_INJECTION=ON,
//     which CI's chaos job enables together with ASan).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/rapminer.h"
#include "detect/detector.h"
#include "fault/fault.h"
#include "gen/rapmd.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "io/json.h"
#include "stream/engine.h"
#include "stream/source.h"
#include "svc/job_manager.h"
#include "util/rng.h"

namespace rap {
namespace {

using dataset::Schema;
using stream::PushResult;
using stream::StreamConfig;
using stream::StreamEngine;
using stream::StreamEvent;
using stream::StreamStats;
using stream::TriggerPolicy;

/// Every test starts and ends with a clean registry: chaos schedules
/// must never leak across tests (or into other suites in this binary).
class Chaos : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::instance().reset(); }
  void TearDown() override { fault::Registry::instance().reset(); }
};

StreamEvent makeEvent(std::vector<dataset::ElemId> slots, std::int64_t ts,
                      double v, double f) {
  StreamEvent event;
  event.leaf = dataset::AttributeCombination(std::move(slots));
  event.ts = ts;
  event.v = v;
  event.f = f;
  return event;
}

/// Row fingerprint independent of arrival order.
using RowKey = std::tuple<std::vector<dataset::ElemId>, double, double>;

std::multiset<RowKey> rowKeys(const dataset::LeafTable& table) {
  std::multiset<RowKey> keys;
  for (const auto& row : table.rows()) {
    keys.insert({row.ac.slots(), row.v, row.f});
  }
  return keys;
}

class TempDir : public Chaos {
 protected:
  void SetUp() override {
    Chaos::SetUp();
    dir_ = std::filesystem::temp_directory_path() /
           ("rap_chaos_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_);
    Chaos::TearDown();
  }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

// ---------------------------------------------------------------------------
// Fault registry semantics (always run).

TEST_F(Chaos, ScheduleIsDeterministicInHitIndex) {
  auto& registry = fault::Registry::instance();
  fault::FaultSpec spec;
  spec.action = fault::Action::kDrop;
  spec.probability = 0.4;
  spec.seed = 7;

  std::vector<bool> first;
  registry.arm("test.point", spec);
  for (int i = 0; i < 200; ++i) {
    first.push_back(registry.onHit("test.point") == fault::Action::kDrop);
  }
  registry.reset();
  registry.arm("test.point", spec);
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) {
    second.push_back(registry.onHit("test.point") == fault::Action::kDrop);
  }
  EXPECT_EQ(first, second);  // pure function of (seed, hit index)

  const std::size_t fired =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 40u);  // ~80 expected; bounds are generous
  EXPECT_LT(fired, 160u);
  EXPECT_EQ(registry.fires("test.point"), fired);
  EXPECT_EQ(registry.hits("test.point"), 200u);
}

TEST_F(Chaos, SkipFirstAndMaxFiresBoundTheSchedule) {
  auto& registry = fault::Registry::instance();
  fault::FaultSpec spec;
  spec.action = fault::Action::kError;
  spec.skip_first = 3;
  spec.max_fires = 2;
  registry.arm("test.window", spec);

  std::vector<int> fired_at;
  for (int i = 0; i < 10; ++i) {
    if (registry.onHit("test.window") != fault::Action::kNone) {
      fired_at.push_back(i);
    }
  }
  EXPECT_EQ(fired_at, (std::vector<int>{3, 4}));
}

TEST_F(Chaos, ThrowActionRaisesInjectedFault) {
  fault::FaultSpec spec;
  spec.action = fault::Action::kThrow;
  fault::Registry::instance().arm("test.throw", spec);
  try {
    fault::inject("test.throw");
    FAIL() << "inject() should have thrown";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.point(), "test.throw");
    EXPECT_NE(std::string(e.what()).find("test.throw"), std::string::npos);
  }
}

TEST_F(Chaos, InjectStatusMapsErrorToInternal) {
  fault::FaultSpec spec;
  spec.action = fault::Action::kError;
  fault::Registry::instance().arm("test.status", spec);
  const util::Status status = fault::injectStatus("test.status");
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("test.status"), std::string::npos);
  EXPECT_TRUE(fault::injectStatus("test.unarmed").isOk());
}

TEST_F(Chaos, DisarmedPointNeverFires) {
  auto& registry = fault::Registry::instance();
  fault::FaultSpec spec;
  spec.action = fault::Action::kDrop;
  registry.arm("test.off", spec);
  EXPECT_EQ(registry.onHit("test.off"), fault::Action::kDrop);
  registry.disarm("test.off");
  EXPECT_EQ(registry.onHit("test.off"), fault::Action::kNone);
  EXPECT_FALSE(fault::anyArmed());
}

TEST_F(Chaos, MacroIsInertWhenCompiledOut) {
  // Production builds: even with a schedule armed, gated call sites
  // evaluate to the constant kNone (zero-overhead contract).
  fault::FaultSpec spec;
  spec.action = fault::Action::kDrop;
  fault::Registry::instance().arm("test.gate", spec);
  if (fault::kCompiledIn) {
    EXPECT_EQ(RAP_FAULT_HIT("test.gate"), fault::Action::kDrop);
  } else {
    EXPECT_EQ(RAP_FAULT_HIT("test.gate"), fault::Action::kNone);
    EXPECT_EQ(fault::Registry::instance().hits("test.gate"), 0u);
  }
}

// ---------------------------------------------------------------------------
// Degraded search: deadlines and layer caps (always run).

/// 3x3 grid with a single anomalous leaf at (0, 1) — the RAP lives at
/// layer 2, so a layer-1 cap must degrade instead of finding it.
dataset::LeafTable layer2Table() {
  const Schema schema = Schema::synthetic({3, 3});
  dataset::LeafTable table(schema);
  for (dataset::ElemId a = 0; a < 3; ++a) {
    for (dataset::ElemId b = 0; b < 3; ++b) {
      const bool anomalous = (a == 0 && b == 1);
      table.addRow(dataset::AttributeCombination({a, b}),
                   anomalous ? 30.0 : 10.0, 10.0, anomalous);
    }
  }
  return table;
}

TEST_F(Chaos, DeadlineExpiryReturnsDegradedPartialResult) {
  const auto miner = core::RapMiner::Builder()
                         .attributeDeletion(false)
                         .deadlineSeconds(1e-12)  // expires immediately
                         .build();
  ASSERT_TRUE(miner.isOk());
  const auto result = miner->localize(layer2Table(), 3);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stats.degraded_reason, "deadline");

  const std::string json =
      io::resultToJson(Schema::synthetic({3, 3}), result);
  EXPECT_NE(json.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(json.find("\"degraded_reason\":\"deadline\""), std::string::npos);
}

TEST_F(Chaos, LayerCapDegradesInsteadOfSearchingDeeper) {
  const auto capped = core::RapMiner::Builder()
                          .attributeDeletion(false)
                          .maxLayers(1)
                          .build();
  ASSERT_TRUE(capped.isOk());
  const auto partial = capped->localize(layer2Table(), 3);
  EXPECT_TRUE(partial.degraded);
  EXPECT_EQ(partial.stats.degraded_reason, "layer-cap");

  const auto full = core::RapMiner::Builder()
                        .attributeDeletion(false)
                        .build();
  ASSERT_TRUE(full.isOk());
  const auto complete = full->localize(layer2Table(), 3);
  EXPECT_FALSE(complete.degraded);
  ASSERT_FALSE(complete.patterns.empty());
  EXPECT_EQ(complete.patterns[0].ac.slots(),
            (std::vector<dataset::ElemId>{0, 1}));
}

TEST_F(Chaos, StreamDeadlineProducesDegradedLocalizations) {
  const Schema schema = Schema::synthetic({6, 5, 4});
  gen::RapmdConfig gen_config;
  gen_config.num_cases = 1;
  gen_config.label_noise = 0.0;
  gen::RapmdGenerator generator(schema, gen_config, /*seed=*/3);

  StreamConfig config;
  config.shards = 2;
  config.window_width = 60;
  config.trigger = TriggerPolicy::kAnomalousWindow;
  config.localize_deadline_seconds = 1e-12;  // every search degrades
  StreamEngine engine(schema, config);
  engine.start();

  stream::CaseEventsConfig source;
  source.window_width = config.window_width;
  engine.ingestBatch(stream::eventsFromCase(generator.generateCase(0), source));
  engine.drain();
  engine.stop();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.localizations, 1u);
  EXPECT_EQ(stats.localizations_degraded, 1u);
  const auto localizations = engine.takeLocalizations();
  ASSERT_EQ(localizations.size(), 1u);
  EXPECT_TRUE(localizations[0].result.degraded);
  EXPECT_EQ(localizations[0].result.stats.degraded_reason, "deadline");
}

// ---------------------------------------------------------------------------
// Checkpoint / restore (always run).

/// Full {4,3} grid for one epoch: 12 healthy leaves.
std::vector<StreamEvent> gridWindow(std::int64_t epoch,
                                    std::int64_t window_width) {
  std::vector<StreamEvent> events;
  for (dataset::ElemId a = 0; a < 4; ++a) {
    for (dataset::ElemId b = 0; b < 3; ++b) {
      const double value = 1.0 + a * 3 + b;
      events.push_back(makeEvent(
          {a, b}, epoch * window_width + (a * 3 + b) % window_width, value,
          value));
    }
  }
  return events;
}

TEST_F(TempDir, CheckpointRestoreResumesAtNextUnsealedEpochExactlyOnce) {
  const Schema schema = Schema::synthetic({4, 3});
  StreamConfig config;
  config.shards = 3;
  config.window_width = 60;
  config.trigger = TriggerPolicy::kEveryWindow;

  // --- First incarnation: three full windows plus a partial epoch 3.
  std::mutex mutex;
  std::map<std::int64_t, std::multiset<RowKey>> windows_a;
  StreamEngine a(schema, config);
  a.setWindowCallback([&](const StreamEngine::WindowInfo& info) {
    std::lock_guard<std::mutex> lock(mutex);
    windows_a[info.epoch] = rowKeys(info.table);
  });
  a.start();
  std::vector<StreamEvent> events;
  for (std::int64_t e = 0; e < 3; ++e) {
    auto w = gridWindow(e, config.window_width);
    events.insert(events.end(), w.begin(), w.end());
  }
  // Partial epoch 3: four rows, watermark 185 seals epochs 0..2 only.
  std::vector<StreamEvent> partial;
  for (dataset::ElemId a_id = 0; a_id < 4; ++a_id) {
    partial.push_back(makeEvent({a_id, 0}, 180 + a_id, 5.0, 5.0));
  }
  events.insert(events.end(), partial.begin(), partial.end());
  ASSERT_EQ(a.ingestBatch(std::move(events)).accepted, 40u);

  ASSERT_TRUE(a.checkpoint(path("chk")).isOk());
  {
    // The checkpoint barrier already waited for windows 0..2 and their
    // localizations; epoch 3 must still be open.
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(windows_a.size(), 3u);
  }
  const auto local_a = a.takeLocalizations();
  ASSERT_EQ(local_a.size(), 3u);
  a.stop();  // the "crash": everything after the checkpoint is lost

  // --- Second incarnation resumes from the file.
  auto restored = StreamEngine::restore(schema, config, path("chk"));
  ASSERT_TRUE(restored.isOk()) << restored.status().message();
  StreamEngine& b = *restored.value();
  std::map<std::int64_t, std::multiset<RowKey>> windows_b;
  b.setWindowCallback([&](const StreamEngine::WindowInfo& info) {
    std::lock_guard<std::mutex> lock(mutex);
    windows_b[info.epoch] = rowKeys(info.table);
  });
  b.start();

  // Replayed event for a sealed epoch: dropped late, NOT re-sealed —
  // exactly-once sealing across the kill/restore cycle.
  b.ingest(makeEvent({0, 0}, 70, 1.0, 1.0));
  // New epoch-4 traffic pushes the watermark past epoch 3's end.
  ASSERT_EQ(b.ingestBatch(gridWindow(4, config.window_width)).accepted, 12u);
  b.drain();
  b.stop();

  const StreamStats stats_b = b.stats();
  EXPECT_EQ(stats_b.late_dropped, 1u);

  std::lock_guard<std::mutex> lock(mutex);
  // The restored engine seals exactly the epochs the first one did not.
  ASSERT_EQ(windows_b.size(), 2u);
  ASSERT_TRUE(windows_b.count(3));
  ASSERT_TRUE(windows_b.count(4));
  // Window 3 carries the checkpointed fragments — nothing lost, nothing
  // duplicated, bit-identical KPI values.
  std::multiset<RowKey> expected;
  for (const auto& event : partial) {
    expected.insert({event.leaf.slots(), event.v, event.f});
  }
  EXPECT_EQ(windows_b[3], expected);
  const auto local_b = b.takeLocalizations();
  std::set<std::int64_t> epochs_b;
  for (const auto& l : local_b) epochs_b.insert(l.epoch);
  EXPECT_EQ(epochs_b, (std::set<std::int64_t>{3, 4}));
}

TEST_F(TempDir, RestoreRejectsMismatchedTopology) {
  const Schema schema = Schema::synthetic({4, 3});
  StreamConfig config;
  config.shards = 3;
  config.window_width = 60;
  StreamEngine engine(schema, config);
  engine.start();
  engine.ingestBatch(gridWindow(0, config.window_width));
  ASSERT_TRUE(engine.checkpoint(path("chk")).isOk());
  engine.stop();

  StreamConfig narrower = config;
  narrower.shards = 2;
  EXPECT_EQ(StreamEngine::restore(schema, narrower, path("chk"))
                .status()
                .code(),
            util::StatusCode::kInvalidArgument);
  StreamConfig wider = config;
  wider.window_width = 120;
  EXPECT_EQ(
      StreamEngine::restore(schema, wider, path("chk")).status().code(),
      util::StatusCode::kInvalidArgument);
}

TEST_F(TempDir, CheckpointRequiresRunningEngine) {
  const Schema schema = Schema::synthetic({4, 3});
  StreamEngine engine(schema, StreamConfig{});
  EXPECT_EQ(engine.checkpoint(path("chk")).code(),
            util::StatusCode::kFailedPrecondition);
}

/// A one-shard RAPCHKPT-1 file over Schema::cdn() carrying one fragment
/// row, written the way a hostile or corrupted producer could.
void writeOneRowCheckpoint(const std::string& file, std::int32_t shard,
                           const std::string& row) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << "RAPCHKPT 1\nshards 1\nwindow_width 60\nmax_event_ts 10\n"
      << "sealed " << io::StreamCheckpoint::kNone << "\n"
      << "fragment " << shard << " 0 1\n"
      << row << "\nend\n";
}

TEST_F(TempDir, RestoreRejectsCheckpointRowsThatFailIngestRules) {
  StreamConfig config;
  config.shards = 1;
  config.window_width = 60;
  const struct {
    const char* what;
    const char* row;
  } cases[] = {
      // Location has 33 elements.
      {"out-of-range slot", "99 0 0 0 0x1p+0 0x1p+0 0"},
      {"short row", "1 0 0 0x1p+0 0x1p+0 0"},
      {"wildcard slot", "1 -1 0 0 0x1p+0 0x1p+0 0"},
      {"nan actual value", "1 0 0 0 nan 0x1p+0 0"},
      {"infinite forecast", "1 0 0 0 0x1p+0 inf 0"},
  };
  for (const std::int32_t shard : {0, -1}) {
    for (const auto& c : cases) {
      writeOneRowCheckpoint(path("chk"), shard, c.row);
      auto restored = StreamEngine::restore(Schema::cdn(), config, path("chk"));
      EXPECT_EQ(restored.status().code(), util::StatusCode::kInvalidArgument)
          << c.what << " (shard " << shard << ")";
    }
  }
  // The same file with a valid row restores and drains cleanly.
  writeOneRowCheckpoint(path("chk"), 0, "32 3 3 19 0x1p+0 0x1p+0 0");
  auto restored = StreamEngine::restore(Schema::cdn(), config, path("chk"));
  ASSERT_TRUE(restored.isOk()) << restored.status().message();
  StreamEngine& engine = *restored.value();
  engine.start();
  engine.drain();
  engine.stop();
  EXPECT_EQ(engine.stats().windows_sealed, 1u);
}

TEST_F(TempDir, NonCanonicalPendingFragmentRestoresToSameLocalizations) {
  // Older writers put assembler-pending fragments (shard -1) in arrival
  // order; a restore must still seal the canonical window.  The RAPMD
  // case's table is in leaf order, so it is the reference row for row.
  const Schema schema = Schema::synthetic({6, 5, 4});
  gen::RapmdConfig gen_config;
  gen_config.num_cases = 1;
  gen_config.label_noise = 0.0;
  const gen::Case c =
      gen::RapmdGenerator(schema, gen_config, /*seed=*/11).generateCase(0);
  StreamConfig config;
  config.shards = 3;
  config.window_width = 60;
  config.trigger = TriggerPolicy::kAnomalousWindow;

  dataset::LeafTable reference = c.table;
  detect::RelativeDeviationDetector(config.detect_threshold).run(reference);
  const auto expected =
      core::RapMiner(config.miner).localize(reference, config.top_k);
  ASSERT_FALSE(expected.patterns.empty());

  std::vector<dataset::LeafRow> rows;
  for (const auto& row : c.table.rows()) {
    rows.push_back({row.ac, row.v, row.f, false});
  }
  util::Rng rng(3);
  rng.shuffle(rows);
  io::StreamCheckpoint checkpoint;
  checkpoint.shards = config.shards;
  checkpoint.window_width = config.window_width;
  checkpoint.max_event_ts = config.window_width - 1;
  // Shards 0 and 1 sealed epoch 0; shard 2 had not, so epoch 0 waits in
  // the assembler.
  checkpoint.shard_sealed_up_to = {0, 0, io::StreamCheckpoint::kNone};
  checkpoint.fragments.push_back({-1, 0, std::move(rows)});
  ASSERT_TRUE(io::saveStreamCheckpoint(checkpoint, path("chk")).isOk());

  auto restored = StreamEngine::restore(schema, config, path("chk"));
  ASSERT_TRUE(restored.isOk()) << restored.status().message();
  StreamEngine& engine = *restored.value();
  std::vector<dataset::LeafRow> sealed;
  engine.setWindowCallback([&](const StreamEngine::WindowInfo& info) {
    for (const auto& row : info.table.rows()) sealed.push_back(row);
  });
  engine.start();
  engine.drain();
  engine.stop();

  // The sealed window is the canonical one, row for row.
  ASSERT_EQ(sealed.size(), reference.size());
  for (dataset::RowId r = 0; r < reference.size(); ++r) {
    const dataset::LeafRow want = reference.row(r);
    EXPECT_EQ(sealed[r].ac, want.ac) << "row " << r;
    EXPECT_EQ(sealed[r].v, want.v);
    EXPECT_EQ(sealed[r].f, want.f);
    EXPECT_EQ(sealed[r].anomalous, want.anomalous);
  }
  const auto localizations = engine.takeLocalizations();
  ASSERT_EQ(localizations.size(), 1u);
  const auto& got = localizations.front().result.patterns;
  ASSERT_EQ(got.size(), expected.patterns.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].ac, expected.patterns[i].ac);
    EXPECT_EQ(got[i].score, expected.patterns[i].score);
    EXPECT_EQ(got[i].confidence, expected.patterns[i].confidence);
  }
}

// ---------------------------------------------------------------------------
// Injected chaos (needs the gated call sites compiled in).

#define RAP_REQUIRE_FAULT_BUILD()                                      \
  do {                                                                 \
    if (!fault::kCompiledIn) {                                         \
      GTEST_SKIP() << "build without RAP_FAULT_INJECTION; chaos CI "   \
                      "job covers this";                               \
    }                                                                  \
  } while (false)

TEST_F(Chaos, RandomizedFaultsNeverDeadlockAndKeepExactlyOnceSealing) {
  RAP_REQUIRE_FAULT_BUILD();
  const Schema schema = Schema::synthetic({6, 5, 4});
  gen::RapmdConfig gen_config;
  gen_config.num_cases = 6;
  gen_config.label_noise = 0.0;
  gen::RapmdGenerator generator(schema, gen_config, /*seed=*/7);

  StreamConfig config;
  config.shards = 4;
  config.window_width = 60;
  config.allowed_lateness = 1000000;
  config.trigger = TriggerPolicy::kAnomalousWindow;
  StreamEngine engine(schema, config);
  engine.start();

  // Batch reference per window, computed before any fault is armed.
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
    stream::CaseEventsConfig source;
    source.epoch = i;
    source.window_width = config.window_width;
    source.shuffle_seed = 100 + static_cast<std::uint64_t>(i);
    auto case_events = stream::eventsFromCase(c, source);
    events.insert(events.end(), case_events.begin(), case_events.end());
  }
  util::Rng rng(9);
  rng.shuffle(events);

  auto& registry = fault::Registry::instance();
  fault::FaultSpec seal_spec;
  seal_spec.action = fault::Action::kDrop;
  seal_spec.probability = 0.34;
  seal_spec.seed = 11;
  registry.arm("stream.seal", seal_spec);
  fault::FaultSpec localize_spec;
  localize_spec.action = fault::Action::kThrow;
  localize_spec.probability = 0.34;
  localize_spec.seed = 22;
  registry.arm("stream.localize", localize_spec);

  stream::ReplaySource::Config replay;
  replay.producers = 3;
  replay.batch_size = 64;
  const PushResult pushed =
      stream::ReplaySource(replay).run(engine, events);
  EXPECT_EQ(pushed.accepted, events.size());
  engine.drain();  // must terminate despite the armed chaos
  engine.stop();

  const StreamStats stats = engine.stats();
  // Every assembled window is accounted exactly once: processed or
  // dropped by the injected seal fault, never lost, never repeated.
  EXPECT_EQ(stats.windows_sealed + stats.windows_dropped,
            static_cast<std::uint64_t>(gen_config.num_cases));
  EXPECT_EQ(stats.windows_dropped, registry.fires("stream.seal"));
  // Every dispatched localization either finished or failed on the
  // injected fault.
  EXPECT_EQ(stats.localizations + stats.localize_failures,
            stats.windows_sealed);

  // Surviving localizations are bit-equal to the no-fault batch
  // reference for their window — chaos may drop work, never corrupt it.
  const auto localizations = engine.takeLocalizations();
  EXPECT_EQ(localizations.size(), stats.localizations);
  std::set<std::int64_t> seen_epochs;
  for (const auto& l : localizations) {
    EXPECT_TRUE(seen_epochs.insert(l.epoch).second)
        << "epoch " << l.epoch << " localized twice";
    std::multiset<std::vector<dataset::ElemId>> got;
    for (const auto& p : l.result.patterns) got.insert(p.ac.slots());
    ASSERT_LT(static_cast<std::size_t>(l.epoch), expected.size());
    EXPECT_EQ(got, expected[static_cast<std::size_t>(l.epoch)])
        << "window " << l.epoch;
  }
}

TEST_F(Chaos, IngestDropFaultDiscardsWholeBatchCounted) {
  RAP_REQUIRE_FAULT_BUILD();
  const Schema schema = Schema::synthetic({4, 3});
  StreamConfig config;
  config.shards = 2;
  config.window_width = 60;
  StreamEngine engine(schema, config);
  engine.start();

  fault::FaultSpec spec;
  spec.action = fault::Action::kDrop;
  spec.max_fires = 1;
  fault::Registry::instance().arm("stream.ingest", spec);

  const PushResult dropped = engine.ingestBatch(gridWindow(0, 60));
  EXPECT_EQ(dropped.accepted, 0u);
  EXPECT_EQ(dropped.dropped_newest, 12u);
  const PushResult accepted = engine.ingestBatch(gridWindow(0, 60));
  EXPECT_EQ(accepted.accepted, 12u);
  engine.stop();
  EXPECT_EQ(engine.stats().dropped_newest, 12u);
  EXPECT_EQ(engine.stats().ingested, 12u);
}

TEST_F(Chaos, SealThrowIsContainedAndCounted) {
  RAP_REQUIRE_FAULT_BUILD();
  const Schema schema = Schema::synthetic({4, 3});
  StreamConfig config;
  config.shards = 2;
  config.window_width = 60;
  config.trigger = TriggerPolicy::kEveryWindow;
  StreamEngine engine(schema, config);
  engine.start();

  fault::FaultSpec spec;
  spec.action = fault::Action::kThrow;
  spec.max_fires = 1;
  fault::Registry::instance().arm("stream.seal", spec);

  std::vector<StreamEvent> events;
  for (std::int64_t e = 0; e < 4; ++e) {
    auto w = gridWindow(e, config.window_width);
    events.insert(events.end(), w.begin(), w.end());
  }
  engine.ingestBatch(std::move(events));
  engine.drain();
  engine.stop();

  const StreamStats stats = engine.stats();
  EXPECT_EQ(stats.windows_dropped, 1u);   // the thrown window
  EXPECT_EQ(stats.windows_sealed, 3u);    // the sealer survived it
}

TEST_F(TempDir, CsvChunkFaultSurfacesAsStatus) {
  RAP_REQUIRE_FAULT_BUILD();
  ASSERT_TRUE(
      io::writeCsvFile(path("data.csv"), {{"a", "b"}, {"c", "d"}}).isOk());
  fault::FaultSpec spec;
  spec.action = fault::Action::kError;
  fault::Registry::instance().arm("io.csv_chunk", spec);
  const auto status =
      io::streamCsvFile(path("data.csv"), [](io::CsvFields) {});
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_NE(status.message().find("io.csv_chunk"), std::string::npos);
}

TEST_F(Chaos, SearchLayerFaultDegradesLocalization) {
  RAP_REQUIRE_FAULT_BUILD();
  fault::FaultSpec spec;
  spec.action = fault::Action::kError;
  fault::Registry::instance().arm("search.layer", spec);
  const auto miner =
      core::RapMiner::Builder().attributeDeletion(false).build();
  ASSERT_TRUE(miner.isOk());
  const auto result = miner->localize(layer2Table(), 3);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.stats.degraded_reason, "fault");
}

TEST_F(Chaos, OwnedPoolTeardownMidSearchDoesNotAbort) {
  RAP_REQUIRE_FAULT_BUILD();
  // Every search layer sleeps 20 ms, so the queued job is still inside
  // Algorithm 2 when its manager tears down the pool the search fans out
  // on.  The layers left must judge alone instead of submitting helpers
  // to a pool that is shutting down, and the job must still finish.
  fault::FaultSpec spec;
  spec.action = fault::Action::kDelay;
  spec.delay_micros = 20000;
  fault::Registry::instance().arm("search.layer", spec);
  std::atomic<int> finished_ok{0};
  {
    svc::JobManager::Options options;
    options.workers = 2;
    options.on_terminal = [&finished_ok](std::uint64_t, std::uint64_t,
                                         bool ok) {
      if (ok) finished_ok.fetch_add(1);
    };
    svc::JobManager manager(std::move(options));
    svc::JobRequest request(layer2Table());
    request.miner.cp.enable_attribute_deletion = false;
    request.miner.search.early_stop = false;
    const auto id = manager.submit(std::move(request));
    ASSERT_TRUE(id.isOk()) << id.status().toString();
    for (int i = 0; i < 2000; ++i) {
      if (manager.status(*id)->state == svc::JobState::kRunning) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(manager.status(*id)->state, svc::JobState::kRunning);
  }
  EXPECT_EQ(finished_ok.load(), 1);
}

}  // namespace
}  // namespace rap
