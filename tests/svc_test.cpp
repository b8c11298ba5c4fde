// Localization service (src/svc): JSON request parsing, snapshot
// decoding + hashing, the LRU+TTL result cache, the job manager's
// admission control, and the HTTP handlers end to end — including the
// parity contract with the csv_localize pipeline and the bit-identical
// cached-resubmission guarantee.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "core/rapminer.h"
#include "dataset/cuboid.h"
#include "dataset/schema.h"
#include "detect/detector.h"
#include "fault/fault.h"
#include "io/csv.h"
#include "io/json.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/breaker.h"
#include "svc/catalog.h"
#include "svc/job_journal.h"
#include "svc/job_manager.h"
#include "svc/json_value.h"
#include "svc/overload.h"
#include "svc/result_cache.h"
#include "svc/router.h"
#include "svc/service.h"
#include "svc/snapshot.h"
#include "svc/supervisor.h"
#include "svc/tenant_config.h"
#include "stream/engine.h"
#include "util/strings.h"

namespace rap {
namespace {

using Clock = svc::ResultCache::Clock;

// ---------------------------------------------------------------------------
// Shared fixtures: the csv_localize demo snapshot on Schema::tiny().

dataset::LeafTable demoTable(const dataset::Schema& schema) {
  dataset::LeafTable table(schema);
  const auto broken =
      dataset::AttributeCombination::parse(schema, "(*, b2, *, *)").value();
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const double f = 50.0 + static_cast<double>(i % 7) * 10.0;
    const double v = broken.matchesLeaf(leaf) ? f * 0.3 : f;
    table.addRow(leaf, v, f, /*anomalous=*/false);
  }
  return table;
}

/// The saveLeafTable CSV layout as an in-memory request body.
std::string csvBodyOf(const dataset::LeafTable& table) {
  const dataset::Schema& schema = table.schema();
  std::vector<io::CsvRow> rows;
  io::CsvRow header;
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    header.push_back(schema.attribute(a).name());
  }
  header.push_back("real");
  header.push_back("predict");
  rows.push_back(std::move(header));
  for (const auto& row : table.rows()) {
    io::CsvRow out;
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      out.push_back(schema.attribute(a).elementName(row.ac.slot(a)));
    }
    out.push_back(std::to_string(row.v));
    out.push_back(std::to_string(row.f));
    rows.push_back(std::move(out));
  }
  return io::writeCsv(rows);
}

/// The same snapshot as a {"rows": [[...]]} JSON body.
std::string jsonBodyOf(const dataset::LeafTable& table) {
  const dataset::Schema& schema = table.schema();
  std::string out = "{\"rows\":[";
  bool first_row = true;
  for (const auto& row : table.rows()) {
    if (!first_row) out += ",";
    first_row = false;
    out += "[";
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      out += "\"" + schema.attribute(a).elementName(row.ac.slot(a)) + "\",";
    }
    out += std::to_string(row.v) + "," + std::to_string(row.f) + "]";
  }
  out += "]}";
  return out;
}

obs::HttpRequest postRequest(std::string body, const std::string& query = "",
                             const std::string& content_type = "") {
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/api/v1/localize";
  request.query = query;
  request.body = std::move(body);
  if (!content_type.empty()) {
    request.headers.emplace_back("content-type", content_type);
  }
  return request;
}

/// The "patterns" portion of a result document — everything before the
/// "stats" object, whose stage timings differ run to run.
std::string patternsOf(const std::string& result_json) {
  const std::size_t pos = result_json.find(",\"stats\"");
  return pos == std::string::npos ? result_json : result_json.substr(0, pos);
}

const std::string* headerOf(const obs::HttpResponse& response,
                            const std::string& name) {
  for (const auto& [key, value] : response.headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// JsonValue.

TEST(JsonValue, ParsesDocumentsAndReportsOffsets) {
  const auto doc = svc::JsonValue::parse(
      " {\"a\": [1, -2.5e1, \"x\\u00e9\\n\"], \"b\": {\"c\": true}, "
      "\"d\": null} ");
  ASSERT_TRUE(doc.isOk()) << doc.status().toString();
  const auto* a = doc.value().find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->isArray());
  ASSERT_EQ(a->array_value.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array_value[0].number_value, 1.0);
  EXPECT_DOUBLE_EQ(a->array_value[1].number_value, -25.0);
  EXPECT_EQ(a->array_value[2].string_value, "x\xC3\xA9\n");
  const auto* b = doc.value().find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->bool_value);
  EXPECT_TRUE(doc.value().find("d")->isNull());
  EXPECT_EQ(doc.value().find("missing"), nullptr);
}

TEST(JsonValue, RejectsHostileInput) {
  // Trailing garbage.
  EXPECT_FALSE(svc::JsonValue::parse("{} x").isOk());
  // Unterminated / malformed.
  EXPECT_FALSE(svc::JsonValue::parse("{\"a\":").isOk());
  EXPECT_FALSE(svc::JsonValue::parse("[1,]").isOk());
  EXPECT_FALSE(svc::JsonValue::parse("01").isOk());
  EXPECT_FALSE(svc::JsonValue::parse("\"\x01\"").isOk());
  // Depth bomb: past the cap must fail, within the cap must pass.
  std::string deep(svc::JsonValue::kMaxDepth + 2, '[');
  deep += std::string(svc::JsonValue::kMaxDepth + 2, ']');
  EXPECT_FALSE(svc::JsonValue::parse(deep).isOk());
  std::string ok(svc::JsonValue::kMaxDepth, '[');
  ok += std::string(svc::JsonValue::kMaxDepth, ']');
  EXPECT_TRUE(svc::JsonValue::parse(ok).isOk());
  // Errors carry a byte offset.
  const auto bad = svc::JsonValue::parse("{\"a\" 1}");
  ASSERT_FALSE(bad.isOk());
  EXPECT_NE(bad.status().message().find("byte"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Snapshot decoding + hashing.

TEST(Snapshot, CsvAndJsonBodiesDecodeToTheSameTable) {
  const auto schema = dataset::Schema::tiny();
  const auto table = demoTable(schema);

  const auto from_csv = svc::parseCsvSnapshot(schema, csvBodyOf(table));
  ASSERT_TRUE(from_csv.isOk()) << from_csv.status().toString();
  const auto from_json = svc::parseJsonSnapshot(schema, jsonBodyOf(table));
  ASSERT_TRUE(from_json.isOk()) << from_json.status().toString();

  ASSERT_EQ(from_csv->size(), table.size());
  ASSERT_EQ(from_json->size(), table.size());
  // The encoding-independent hash sees one identical snapshot.
  EXPECT_EQ(svc::snapshotHash(*from_csv), svc::snapshotHash(*from_json));
  EXPECT_EQ(svc::snapshotHash(*from_csv), svc::snapshotHash(table));
}

TEST(Snapshot, RejectsMalformedBodies) {
  const auto schema = dataset::Schema::tiny();
  // Unknown element name.
  EXPECT_FALSE(
      svc::parseCsvSnapshot(schema, "A,B,C,D,real,predict\nzz,b1,c1,d1,1,1\n")
          .isOk());
  // Non-finite KPI.
  EXPECT_FALSE(
      svc::parseCsvSnapshot(schema,
                            "A,B,C,D,real,predict\na1,b1,c1,d1,nan,1\n")
          .isOk());
  // JSON: not an object with rows.
  EXPECT_FALSE(svc::parseJsonSnapshot(schema, "[1,2]").isOk());
  // JSON: wrong arity.
  EXPECT_FALSE(
      svc::parseJsonSnapshot(schema, "{\"rows\":[[\"a1\",\"b1\",1.0]]}")
          .isOk());
  // JSON: attribute cell must be a string.
  EXPECT_FALSE(
      svc::parseJsonSnapshot(
          schema, "{\"rows\":[[1,\"b1\",\"c1\",\"d1\",1.0,1.0]]}")
          .isOk());
}

TEST(Snapshot, KpiErrorsNameTheRowInCsvAndJson) {
  const auto schema = dataset::Schema::tiny();
  const auto csv = svc::parseCsvSnapshot(
      schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1,1\na2,b1,c1,d1,x,1\n");
  ASSERT_FALSE(csv.isOk());
  EXPECT_EQ(csv.status().message(), "request body:3: not a number: 'x'");

  // JSON row i is line i + 2, as if a header preceded it.
  const auto json = svc::parseJsonSnapshot(
      schema,
      "{\"rows\":[[\"a1\",\"b1\",\"c1\",\"d1\",1,1],"
      "[\"a2\",\"b1\",\"c1\",\"d1\",\"x\",1]]}");
  ASSERT_FALSE(json.isOk());
  EXPECT_EQ(json.status().message(), csv.status().message());

  const auto empty = svc::parseCsvSnapshot(
      schema, "A,B,C,D,real,predict\na1,b1,c1,d1,1, \n");
  ASSERT_FALSE(empty.isOk());
  EXPECT_EQ(empty.status().message(), "request body:2: empty number");
}

TEST(Snapshot, LabelsMustBeZeroOneOrEmpty) {
  const auto schema = dataset::Schema::tiny();
  const std::string header = "A,B,C,D,real,predict,label\n";
  for (const char* label : {"1.0", "true", "2", "-1", "01", "yes"}) {
    const auto csv = svc::parseCsvSnapshot(
        schema, header + "a1,b1,c1,d1,1,1," + label + "\n");
    ASSERT_FALSE(csv.isOk()) << label;
    EXPECT_EQ(csv.status().message(),
              std::string("request body:2: label must be 0, 1 or empty, "
                          "got '") +
                  label + "'");
    const auto json = svc::parseJsonSnapshot(
        schema, std::string("{\"rows\":[[\"a1\",\"b1\",\"c1\",\"d1\",1,1,\"") +
                    label + "\"]]}");
    ASSERT_FALSE(json.isOk()) << label;
    EXPECT_EQ(json.status().message(), csv.status().message());
  }
  // A JSON number label must be 0 or 1.
  const auto two = svc::parseJsonSnapshot(
      schema, "{\"rows\":[[\"a1\",\"b1\",\"c1\",\"d1\",1,1,2]]}");
  ASSERT_FALSE(two.isOk());
  EXPECT_EQ(two.status().message(),
            "request body:2: label must be 0, 1 or empty, got '2'");

  // Accepted: 1 (trimmed) is anomalous; 0 and empty are normal.
  const auto csv = svc::parseCsvSnapshot(
      schema, header +
                  "a1,b1,c1,d1,1,1, 1 \n"
                  "a2,b1,c1,d1,1,1,0\n"
                  "a3,b1,c1,d1,1,1,\n"
                  "a1,b2,c1,d1,1,1,\"1\"\n");
  ASSERT_TRUE(csv.isOk()) << csv.status().toString();
  ASSERT_EQ(csv->size(), 4u);
  EXPECT_TRUE(csv->row(0).anomalous);
  EXPECT_FALSE(csv->row(1).anomalous);
  EXPECT_FALSE(csv->row(2).anomalous);
  EXPECT_TRUE(csv->row(3).anomalous);
  const auto json = svc::parseJsonSnapshot(
      schema,
      "{\"rows\":[[\"a1\",\"b1\",\"c1\",\"d1\",1,1,\" 1 \"],"
      "[\"a2\",\"b1\",\"c1\",\"d1\",1,1,0],"
      "[\"a3\",\"b1\",\"c1\",\"d1\",1,1,\"\"],"
      "[\"a1\",\"b2\",\"c1\",\"d1\",1,1,1]]}");
  ASSERT_TRUE(json.isOk()) << json.status().toString();
  EXPECT_EQ(svc::snapshotHash(*json), svc::snapshotHash(*csv));
}

TEST(Snapshot, ContentHashSeparatesBodies) {
  EXPECT_EQ(svc::contentHash("abc"), svc::contentHash("abc"));
  EXPECT_NE(svc::contentHash("abc"), svc::contentHash("abd"));
  EXPECT_NE(svc::contentHash(""),
            svc::contentHash(std::string(8, '\0')));
  // Word-wise and byte-wise hashes are distinct functions by design.
  const std::string long_body(1 << 16, 'x');
  EXPECT_EQ(svc::contentHash(long_body), svc::contentHash(long_body));
  EXPECT_NE(svc::contentHash(long_body + "a"), svc::contentHash(long_body));
  EXPECT_EQ(svc::fnv1a("abc"), svc::fnv1a("abc"));
  EXPECT_NE(svc::fnv1a("abc"), svc::fnv1a("abd"));
}

TEST(Snapshot, HashIsPinnedForAFixedTable) {
  // The result cache keys on snapshotHash, so its bytes and their order
  // (per row: element ids, v, f, verdict) are a stable contract.
  dataset::LeafTable table(dataset::Schema::tiny());
  table.addRow(dataset::AttributeCombination({0, 0, 0, 0}), 10.0, 12.5, true);
  table.addRow(dataset::AttributeCombination({2, 1, 0, 1}), -3.25, 0.0, false);
  table.addRow(dataset::AttributeCombination({1, 0, 1, 1}), 1e-9, 7.0, true);
  table.addRow(dataset::AttributeCombination({0, 0, 0, 0}), 10.0, 12.5, false);
  EXPECT_EQ(svc::snapshotHash(table), 4222860142592257985ull);
}

// ---------------------------------------------------------------------------
// ResultCache.

TEST(ResultCache, TtlExpiresFromInsertionTime) {
  svc::ResultCache cache({.capacity = 4, .ttl_seconds = 10.0});
  const auto t0 = Clock::now();
  cache.putAt(1, "doc", t0);

  // Just inside the TTL: hit, and the hit refreshes recency only.
  auto hit = cache.getAt(1, t0 + std::chrono::seconds(9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "doc");

  // Past the TTL (anchored at insertion, NOT at the last get): gone.
  EXPECT_FALSE(cache.getAt(1, t0 + std::chrono::seconds(11)).has_value());
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.size(), 0u);

  // Overwriting re-anchors the TTL.
  cache.putAt(2, "v1", t0);
  cache.putAt(2, "v2", t0 + std::chrono::seconds(8));
  const auto fresh = cache.getAt(2, t0 + std::chrono::seconds(17));
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(*fresh, "v2");
}

TEST(ResultCache, EvictsLeastRecentlyUsedAtCapacity) {
  svc::ResultCache cache({.capacity = 2, .ttl_seconds = 0.0});
  const auto t0 = Clock::now();
  cache.putAt(1, "one", t0);
  cache.putAt(2, "two", t0);
  // Touch 1 so 2 becomes the LRU entry.
  ASSERT_TRUE(cache.getAt(1, t0).has_value());
  cache.putAt(3, "three", t0);

  EXPECT_TRUE(cache.getAt(1, t0).has_value());
  EXPECT_FALSE(cache.getAt(2, t0).has_value());  // evicted
  EXPECT_TRUE(cache.getAt(3, t0).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, CapacityZeroDisablesCaching) {
  svc::ResultCache cache({.capacity = 0, .ttl_seconds = 0.0});
  cache.put(7, "doc");
  EXPECT_FALSE(cache.get(7).has_value());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// ---------------------------------------------------------------------------
// JobManager.

/// A result document with every wall-time value zeroed: the rest of it
/// is a function of the snapshot and the thresholds alone.
std::string withoutTimes(const std::string& doc) {
  static const std::regex timed(
      "(\"(?:seconds|seconds_aggregate|attribute_deletion|search|ranking)\":)"
      "[-+.0-9eE]+");
  return std::regex_replace(doc, timed, "$010");
}

svc::JobRequest demoJob(std::uint64_t cache_key = 0) {
  svc::JobRequest request(demoTable(dataset::Schema::tiny()));
  request.cache_key = cache_key;
  return request;
}

TEST(JobManager, ExecutesQueuedJobsToCompletion) {
  svc::JobManager manager({.queue_capacity = 8, .workers = 2});
  const auto id = manager.submit(demoJob());
  ASSERT_TRUE(id.isOk()) << id.status().toString();
  manager.drain();

  const auto status = manager.status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, svc::JobState::kDone);
  EXPECT_FALSE(status->cache_hit);
  // The demo snapshot's root cause is (*, b2, *, *).
  EXPECT_NE(status->result_json.find("(*, b2, *, *)"), std::string::npos);
  EXPECT_TRUE(manager.status(999).has_value() == false);
}

TEST(JobManager, ShedsLoadWhenTheQueueIsFull) {
  svc::JobManager manager({.queue_capacity = 2, .workers = 1});
  manager.pause();  // workers idle: the queue fills deterministically
  ASSERT_TRUE(manager.submit(demoJob()).isOk());
  ASSERT_TRUE(manager.submit(demoJob()).isOk());
  EXPECT_EQ(manager.queueDepth(), 2u);

  const auto rejected = manager.submit(demoJob());
  ASSERT_FALSE(rejected.isOk());
  EXPECT_EQ(rejected.status().code(), util::StatusCode::kOutOfRange);

  manager.resume();
  manager.drain();
  EXPECT_EQ(manager.queueDepth(), 0u);
  for (const auto& job : manager.list()) {
    EXPECT_EQ(job.state, svc::JobState::kDone);
  }
}

TEST(JobManager, FailsJobsWithInvalidConfigInsteadOfAborting) {
  svc::JobManager manager({.queue_capacity = 4, .workers = 1});
  auto request = demoJob();
  request.miner.search.t_conf = 42.0;  // out of range: Builder rejects
  const auto id = manager.submit(std::move(request));
  ASSERT_TRUE(id.isOk());
  manager.drain();
  const auto status = manager.status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, svc::JobState::kFailed);
  EXPECT_NE(status->error.find("t_conf"), std::string::npos);
}

TEST(JobManager, ServesIdenticalResubmissionsFromTheCache) {
  svc::ResultCache cache({.capacity = 8, .ttl_seconds = 0.0});
  svc::JobManager manager({.queue_capacity = 8, .workers = 1}, &cache);

  const auto first = manager.executeInline(demoJob(/*cache_key=*/77));
  ASSERT_TRUE(first.isOk()) << first.status().toString();
  const auto second = manager.executeInline(demoJob(/*cache_key=*/77));
  ASSERT_TRUE(second.isOk());
  // Bit-identical replay of the stored document.
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);

  // Queued path hits the same cache.
  const auto id = manager.submit(demoJob(/*cache_key=*/77));
  ASSERT_TRUE(id.isOk());
  manager.drain();
  const auto status = manager.status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, svc::JobState::kDone);
  EXPECT_TRUE(status->cache_hit);
  EXPECT_EQ(status->result_json, *first);
}

TEST(JobManager, AsyncJobsOnAOneWorkerSharedPoolAllComplete) {
  // Each queued search runs on the pool's only worker and fans out on
  // that same pool; sync searches beside them borrow the worker only
  // while it is idle.  Every job must finish with the document of a
  // search run without a pool.
  util::ThreadPool pool(1);
  svc::JobManager manager({.queue_capacity = 16, .shared_pool = &pool});
  const dataset::Schema schema = dataset::Schema::tiny();
  dataset::LeafTable labeled = demoTable(schema);
  detect::RelativeDeviationDetector(0.095).run(labeled);
  const std::string reference = withoutTimes(
      io::resultToJson(schema, core::RapMiner().localize(labeled, 5)));

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    const auto id = manager.submit(demoJob());
    ASSERT_TRUE(id.isOk()) << id.status().toString();
    ids.push_back(*id);
  }
  std::vector<std::thread> sync_callers;
  std::vector<std::string> sync_docs(2);
  for (std::size_t t = 0; t < sync_docs.size(); ++t) {
    sync_callers.emplace_back([&manager, &sync_docs, t] {
      const auto doc = manager.executeInline(demoJob());
      if (doc.isOk()) sync_docs[t] = *doc;
    });
  }
  for (auto& caller : sync_callers) caller.join();
  manager.drain();
  for (const auto id : ids) {
    const auto status = manager.status(id);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, svc::JobState::kDone) << "job " << id;
    EXPECT_EQ(withoutTimes(status->result_json), reference) << "job " << id;
  }
  for (const auto& doc : sync_docs) EXPECT_EQ(withoutTimes(doc), reference);
}

// ---------------------------------------------------------------------------
// LocalizeService HTTP handlers.

svc::LocalizeService::Options smallServiceOptions() {
  svc::LocalizeService::Options options;
  options.jobs.queue_capacity = 2;
  options.jobs.workers = 1;
  options.jobs.retry_after_seconds = 2.0;
  return options;
}

TEST(LocalizeService, SyncPostMatchesTheCsvLocalizePipeline) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());

  const auto table = demoTable(schema);
  const auto response = service.handleLocalize(postRequest(csvBodyOf(table)));
  ASSERT_EQ(response.status, 200) << response.body;

  // Reference pipeline: exactly what examples/csv_localize does with the
  // same defaults (detect at 0.095, RapMinerConfig{} thresholds, k=5).
  dataset::LeafTable reference = table;
  detect::RelativeDeviationDetector(0.095).run(reference);
  const auto expected =
      core::RapMiner(core::RapMinerConfig{}).localize(reference, 5);
  // Root-cause sets must match exactly; the stats tail carries wall-clock
  // stage timings, so only the patterns portion is comparable.
  EXPECT_EQ(patternsOf(response.body),
            patternsOf(io::resultToJson(schema, expected)));
  EXPECT_NE(response.body.find("(*, b2, *, *)"), std::string::npos);

  const auto* cache_state = headerOf(response, "X-Rap-Cache");
  ASSERT_NE(cache_state, nullptr);
  EXPECT_EQ(*cache_state, "miss");
}

TEST(LocalizeService, IdenticalResubmissionIsABitIdenticalCacheHit) {
  const auto schema = dataset::Schema::tiny();
  obs::setMetricsEnabled(true);
  // The service labels its series with its tenant ("default" here).
  auto& hits = obs::defaultRegistry().counter("rap_svc_cache_hits_total",
                                              {{"tenant", "default"}});
  const std::uint64_t hits_before = hits.value();

  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  const std::string body = csvBodyOf(demoTable(schema));

  const auto first = service.handleLocalize(postRequest(body));
  ASSERT_EQ(first.status, 200);

  // Second identical POST: no parsing, no search — assert via spans.
  obs::setTracingEnabled(true);
  obs::defaultTraceRecorder().clear();
  const auto second = service.handleLocalize(postRequest(body));
  obs::setTracingEnabled(false);

  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(second.body, first.body);  // bit-identical
  const auto* cache_state = headerOf(second, "X-Rap-Cache");
  ASSERT_NE(cache_state, nullptr);
  EXPECT_EQ(*cache_state, "hit");
  EXPECT_EQ(hits.value(), hits_before + 1);
  for (const auto& event : obs::defaultTraceRecorder().snapshotEvents()) {
    EXPECT_STRNE(event.name, "svc/execute");
    EXPECT_STRNE(event.name, "localize");
    EXPECT_STRNE(event.name, "localize/search");
  }
  obs::setMetricsEnabled(false);
}

TEST(LocalizeService, StageTelemetryTimesHashAlwaysAndParseOnMissesOnly) {
  const auto schema = dataset::Schema::tiny();
  obs::setMetricsEnabled(true);
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  // The service registered both series (bounds are its own).
  const auto stage = [](const char* name) -> obs::Histogram& {
    return obs::defaultRegistry().histogram(
        "rap_svc_stage_seconds", {}, {{"tenant", "default"}, {"stage", name}});
  };
  const std::uint64_t hash_before = stage("hash").count();
  const std::uint64_t parse_before = stage("parse").count();
  const std::string body = csvBodyOf(demoTable(schema));

  ASSERT_EQ(service.handleLocalize(postRequest(body)).status, 200);  // miss
  EXPECT_EQ(stage("hash").count(), hash_before + 1);
  EXPECT_EQ(stage("parse").count(), parse_before + 1);
  EXPECT_GT(stage("parse").sum(), 0.0);

  const auto hit = service.handleLocalize(postRequest(body));
  ASSERT_EQ(hit.status, 200);
  const auto* cache_state = headerOf(hit, "X-Rap-Cache");
  ASSERT_NE(cache_state, nullptr);
  EXPECT_EQ(*cache_state, "hit");
  EXPECT_EQ(stage("hash").count(), hash_before + 2);
  EXPECT_EQ(stage("parse").count(), parse_before + 1);  // no decode on a hit
  obs::setMetricsEnabled(false);
}

TEST(LocalizeService, SyncMissThenResubmitCountsOneLookupEach) {
  // The pre-parse fast path and the job path both consult the cache; a
  // sync request must still count exactly one lookup.
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  const std::string body = csvBodyOf(demoTable(schema));

  const auto first = service.handleLocalize(postRequest(body, "mode=sync"));
  ASSERT_EQ(first.status, 200) << first.body;
  EXPECT_EQ(*headerOf(first, "X-Rap-Cache"), "miss");
  const auto second = service.handleLocalize(postRequest(body, "mode=sync"));
  ASSERT_EQ(second.status, 200) << second.body;
  EXPECT_EQ(*headerOf(second, "X-Rap-Cache"), "hit");

  const auto stats = service.cache().stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(LocalizeService, JsonBodyProducesTheSameResultAsCsv) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  const auto table = demoTable(schema);

  const auto from_csv = service.handleLocalize(postRequest(csvBodyOf(table)));
  const auto from_json = service.handleLocalize(
      postRequest(jsonBodyOf(table), "", "application/json"));
  ASSERT_EQ(from_csv.status, 200) << from_csv.body;
  ASSERT_EQ(from_json.status, 200) << from_json.body;
  EXPECT_EQ(patternsOf(from_csv.body), patternsOf(from_json.body));
  EXPECT_NE(from_json.body.find("(*, b2, *, *)"), std::string::npos);
}

TEST(LocalizeService, AsyncModeRunsThroughTheJobApi) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());

  const auto accepted = service.handleLocalize(
      postRequest(csvBodyOf(demoTable(schema)), "mode=async&priority=3"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  EXPECT_NE(accepted.body.find("\"job_id\":1"), std::string::npos);
  EXPECT_NE(accepted.body.find("\"status_url\":\"/api/v1/jobs/1\""),
            std::string::npos);
  service.jobs().drain();

  obs::HttpRequest get;
  get.method = "GET";
  get.path = "/api/v1/jobs/1";
  const auto job = service.handleJobGet(get);
  ASSERT_EQ(job.status, 200) << job.body;
  EXPECT_NE(job.body.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(job.body.find("\"priority\":3"), std::string::npos);
  EXPECT_NE(job.body.find("(*, b2, *, *)"), std::string::npos);

  obs::HttpRequest list;
  list.method = "GET";
  list.path = "/api/v1/jobs";
  const auto listing = service.handleJobsList(list);
  EXPECT_EQ(listing.status, 200);
  EXPECT_NE(listing.body.find("\"job_id\":1"), std::string::npos);
  EXPECT_NE(listing.body.find("\"queue_depth\":0"), std::string::npos);

  get.path = "/api/v1/jobs/999";
  EXPECT_EQ(service.handleJobGet(get).status, 404);
  get.path = "/api/v1/jobs/abc";
  EXPECT_EQ(service.handleJobGet(get).status, 400);
}

TEST(LocalizeService, FullQueueYields429WithRetryAfter) {
  const auto schema = dataset::Schema::tiny();
  obs::setMetricsEnabled(true);
  auto& rejected = obs::defaultRegistry().counter(
      "rap_svc_admission_rejected_total", {{"tenant", "default"}});
  const std::uint64_t rejected_before = rejected.value();

  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  service.jobs().pause();

  // Distinct bodies (t_conf varies) so nothing is served from the cache.
  const std::string body = csvBodyOf(demoTable(schema));
  ASSERT_EQ(service.handleLocalize(postRequest(body, "mode=async&t_conf=0.7"))
                .status,
            202);
  ASSERT_EQ(service.handleLocalize(postRequest(body, "mode=async&t_conf=0.8"))
                .status,
            202);

  const auto shed =
      service.handleLocalize(postRequest(body, "mode=async&t_conf=0.9"));
  EXPECT_EQ(shed.status, 429);
  EXPECT_NE(shed.body.find("job queue full"), std::string::npos);
  const auto* retry_after = headerOf(shed, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  // Jittered over [base, 2*base): an integral header within the bounds,
  // never the bare base for every client at once.
  const double retry_seconds = std::stod(*retry_after);
  EXPECT_GE(retry_seconds, 2.0);
  EXPECT_LE(retry_seconds, 4.0);
  EXPECT_EQ(rejected.value(), rejected_before + 1);

  service.jobs().resume();
  service.jobs().drain();
  obs::setMetricsEnabled(false);
}

TEST(LocalizeService, RejectsBadOverridesAndBodiesWith400) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{},
                               smallServiceOptions());
  const std::string body = csvBodyOf(demoTable(schema));

  EXPECT_EQ(service.handleLocalize(postRequest(body, "k=abc")).status, 400);
  EXPECT_EQ(service.handleLocalize(postRequest(body, "t_conf=nope")).status,
            400);
  EXPECT_EQ(service.handleLocalize(postRequest(body, "t_conf=1.5")).status,
            400);
  EXPECT_EQ(service.handleLocalize(postRequest(body, "t_cp=-1")).status, 400);
  EXPECT_EQ(service.handleLocalize(postRequest(body, "mode=banana")).status,
            400);
  EXPECT_EQ(service.handleLocalize(postRequest(body, "deadline=-3")).status,
            400);

  EXPECT_EQ(service.handleLocalize(postRequest("not,a,leaf\ntable\n")).status,
            400);
  EXPECT_EQ(
      service.handleLocalize(postRequest("{broken", "", "application/json"))
          .status,
      400);
}

// ---------------------------------------------------------------------------
// Multi-tenant serving plane: DatasetCatalog + TenantRouter.

/// Degrades every leaf whose first slot is element 0 — a schema-generic
/// incident so tenants with different schemas get comparable snapshots.
dataset::LeafTable incidentTable(const dataset::Schema& schema) {
  dataset::LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const double f = 50.0 + static_cast<double>(i % 7) * 10.0;
    const double v = leaf.slot(0) == 0 ? f * 0.3 : f;
    table.addRow(leaf, v, f, /*anomalous=*/false);
  }
  return table;
}

obs::HttpRequest routerRequest(const std::string& method,
                               const std::string& path,
                               std::string body = "",
                               const std::string& query = "") {
  obs::HttpRequest request;
  request.method = method;
  request.path = path;
  request.query = query;
  request.body = std::move(body);
  return request;
}

svc::TenantSpec specOf(const std::string& name, dataset::Schema schema) {
  svc::TenantSpec spec;
  spec.name = name;
  spec.schema = std::move(schema);
  return spec;
}

TEST(TenantCatalog, TwoSchemasServeConcurrentlyBitIdenticalToSingleTenant) {
  const auto tiny = dataset::Schema::tiny();
  const auto wide = dataset::Schema::synthetic({4, 3, 2});

  // Single-tenant references, computed before the catalog exists.
  svc::LocalizeService ref_tiny(tiny, core::RapMinerConfig{});
  svc::LocalizeService ref_wide(wide, core::RapMinerConfig{});
  const std::string body_tiny = csvBodyOf(incidentTable(tiny));
  const std::string body_wide = csvBodyOf(incidentTable(wide));
  const auto ref_response_tiny =
      ref_tiny.handleLocalize(postRequest(body_tiny, "mode=sync"));
  const auto ref_response_wide =
      ref_wide.handleLocalize(postRequest(body_wide, "mode=sync"));
  ASSERT_EQ(ref_response_tiny.status, 200);
  ASSERT_EQ(ref_response_wide.status, 200);

  svc::DatasetCatalog catalog({.pool_threads = 4});
  svc::TenantRouter router(catalog);
  ASSERT_TRUE(catalog.put(specOf("alpha", tiny)).isOk());
  ASSERT_TRUE(catalog.put(specOf("beta", wide)).isOk());

  // Hammer both tenants from concurrent clients; every response must be
  // bit-identical (modulo timing stats) to its single-tenant reference.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const bool use_tiny = t % 2 == 0;
      const std::string& body = use_tiny ? body_tiny : body_wide;
      const std::string& want =
          use_tiny ? ref_response_tiny.body : ref_response_wide.body;
      const std::string path = use_tiny ? "/api/v1/tenants/alpha/localize"
                                        : "/api/v1/tenants/beta/localize";
      for (int i = 0; i < 8; ++i) {
        const auto response =
            router.route(routerRequest("POST", path, body, "mode=sync"));
        if (response.status != 200 ||
            patternsOf(response.body) != patternsOf(want)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TenantCatalog, CachesJobsAndMetricsNeverLeakAcrossTenants) {
  obs::setMetricsEnabled(true);
  const auto tiny = dataset::Schema::tiny();
  auto& alpha_hits = obs::defaultRegistry().counter(
      "rap_svc_cache_hits_total", {{"tenant", "alpha"}});
  auto& beta_hits = obs::defaultRegistry().counter(
      "rap_svc_cache_hits_total", {{"tenant", "beta"}});
  const std::uint64_t alpha_before = alpha_hits.value();
  const std::uint64_t beta_before = beta_hits.value();

  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  ASSERT_TRUE(catalog.put(specOf("alpha", tiny)).isOk());
  ASSERT_TRUE(catalog.put(specOf("beta", tiny)).isOk());

  const std::string body = csvBodyOf(incidentTable(tiny));
  const auto first = router.route(routerRequest(
      "POST", "/api/v1/tenants/alpha/localize", body, "mode=sync"));
  const auto second = router.route(routerRequest(
      "POST", "/api/v1/tenants/alpha/localize", body, "mode=sync"));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(*headerOf(first, "X-Rap-Cache"), "miss");
  EXPECT_EQ(*headerOf(second, "X-Rap-Cache"), "hit");

  // Identical body on the OTHER tenant: its own cache, so a miss.
  const auto other = router.route(routerRequest(
      "POST", "/api/v1/tenants/beta/localize", body, "mode=sync"));
  ASSERT_EQ(other.status, 200);
  EXPECT_EQ(*headerOf(other, "X-Rap-Cache"), "miss");

  EXPECT_EQ(alpha_hits.value(), alpha_before + 1);
  EXPECT_EQ(beta_hits.value(), beta_before);

  // Async jobs: per-tenant id spaces and listings.
  const auto alpha_job = router.route(routerRequest(
      "POST", "/api/v1/tenants/alpha/localize", body, "mode=async"));
  ASSERT_EQ(alpha_job.status, 202);
  EXPECT_NE(alpha_job.body.find(
                "\"status_url\":\"/api/v1/tenants/alpha/jobs/"),
            std::string::npos);
  catalog.find("alpha")->service->jobs().drain();

  const auto alpha_list =
      router.route(routerRequest("GET", "/api/v1/tenants/alpha/jobs"));
  const auto beta_list =
      router.route(routerRequest("GET", "/api/v1/tenants/beta/jobs"));
  ASSERT_EQ(alpha_list.status, 200);
  ASSERT_EQ(beta_list.status, 200);
  EXPECT_NE(alpha_list.body.find("\"job_id\":"), std::string::npos);
  EXPECT_EQ(beta_list.body.find("\"job_id\":"), std::string::npos);

  // Alpha's job is reachable under alpha only.
  const auto hit =
      router.route(routerRequest("GET", "/api/v1/tenants/alpha/jobs/1"));
  const auto cross =
      router.route(routerRequest("GET", "/api/v1/tenants/beta/jobs/1"));
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(cross.status, 404);
  EXPECT_NE(cross.body.find("\"error\":{\"code\":\"not_found\""),
            std::string::npos);
}

TEST(TenantCatalog, AdmissionQuotaShedsPerTenant) {
  const auto tiny = dataset::Schema::tiny();
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);

  auto small = specOf("small", tiny);
  small.service.jobs.queue_capacity = 1;
  ASSERT_TRUE(catalog.put(std::move(small)).isOk());
  ASSERT_TRUE(catalog.put(specOf("big", tiny)).isOk());

  // Freeze small's manager so its one queue slot fills deterministically.
  catalog.find("small")->service->jobs().pause();
  const std::string body = csvBodyOf(incidentTable(tiny));
  const auto admitted = router.route(routerRequest(
      "POST", "/api/v1/tenants/small/localize", body, "mode=async"));
  ASSERT_EQ(admitted.status, 202);
  const auto shed = router.route(routerRequest(
      "POST", "/api/v1/tenants/small/localize", body,
      "mode=async&priority=1"));
  EXPECT_EQ(shed.status, 429);
  EXPECT_NE(shed.body.find("\"error\":{\"code\":\"queue_full\""),
            std::string::npos);

  // The sibling tenant is untouched by small's full queue.
  const auto sibling = router.route(routerRequest(
      "POST", "/api/v1/tenants/big/localize", body, "mode=async"));
  EXPECT_EQ(sibling.status, 202);

  catalog.find("small")->service->jobs().resume();
  catalog.find("small")->service->jobs().drain();
  catalog.find("big")->service->jobs().drain();
}

TEST(TenantCatalog, DeleteDrainsInFlightJobsAndUnregisters) {
  const auto tiny = dataset::Schema::tiny();
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  ASSERT_TRUE(catalog.put(specOf("default", tiny)).isOk());
  ASSERT_TRUE(catalog.put(specOf("doomed", tiny)).isOk());

  // Leave jobs in flight, then delete: the DELETE must drain them
  // before answering, and the name must be gone afterwards.
  const std::string body = csvBodyOf(incidentTable(tiny));
  for (int i = 0; i < 3; ++i) {
    const auto admitted = router.route(routerRequest(
        "POST", "/api/v1/tenants/doomed/localize", body, "mode=async"));
    ASSERT_EQ(admitted.status, 202);
  }
  const auto deleted =
      router.route(routerRequest("DELETE", "/api/v1/tenants/doomed"));
  EXPECT_EQ(deleted.status, 200);
  EXPECT_EQ(catalog.find("doomed"), nullptr);
  EXPECT_EQ(
      router.route(routerRequest("GET", "/api/v1/tenants/doomed")).status,
      404);

  // The protected default tenant stays.
  const auto forbidden =
      router.route(routerRequest("DELETE", "/api/v1/tenants/default"));
  EXPECT_EQ(forbidden.status, 403);
  EXPECT_NE(catalog.find("default"), nullptr);
}

TEST(TenantCatalog, RouterContractAndErrorEnvelopes) {
  const auto tiny = dataset::Schema::tiny();
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  ASSERT_TRUE(catalog.put(specOf("default", tiny)).isOk());

  // Dynamic PUT, then duplicate -> 409 in the envelope shape.
  const std::string spec_json = "{\"schema\":{\"builtin\":\"tiny\"}}";
  const auto created = router.route(
      routerRequest("PUT", "/api/v1/tenants/edge-eu", spec_json));
  EXPECT_EQ(created.status, 201);
  const auto duplicate = router.route(
      routerRequest("PUT", "/api/v1/tenants/edge-eu", spec_json));
  EXPECT_EQ(duplicate.status, 409);
  EXPECT_NE(duplicate.body.find("\"error\":{\"code\":\"already_exists\""),
            std::string::npos);

  // Unknown tenant / bad name / unknown sub-resource / bad spec.
  EXPECT_EQ(router.route(routerRequest("GET", "/api/v1/tenants/ghost"))
                .status,
            404);
  EXPECT_EQ(router.route(routerRequest("GET", "/api/v1/tenants/bad!name"))
                .status,
            400);
  EXPECT_EQ(router
                .route(routerRequest("GET",
                                     "/api/v1/tenants/edge-eu/wat"))
                .status,
            404);
  const auto bad_spec = router.route(routerRequest(
      "PUT", "/api/v1/tenants/typo", "{\"schema\":{\"builtin\":\"tiny\"},"
                                     "\"t_pc\":0.1}"));
  EXPECT_EQ(bad_spec.status, 400);
  EXPECT_NE(bad_spec.body.find("unknown field"), std::string::npos);

  // Ingest needs a streaming tenant.
  const auto not_streaming = router.route(routerRequest(
      "POST", "/api/v1/tenants/edge-eu/ingest", "ts,a\n"));
  EXPECT_EQ(not_streaming.status, 409);
  EXPECT_NE(not_streaming.body.find("\"code\":\"not_streaming\""),
            std::string::npos);

  // Listing includes both tenants.
  const auto listing =
      router.handleTenantsList(routerRequest("GET", "/api/v1/tenants"));
  EXPECT_EQ(listing.status, 200);
  EXPECT_NE(listing.body.find("\"name\":\"default\""), std::string::npos);
  EXPECT_NE(listing.body.find("\"name\":\"edge-eu\""), std::string::npos);

  // /statusz carries a section per tenant.
  const auto statusz = router.handleStatusz(routerRequest("GET", "/statusz"));
  EXPECT_EQ(statusz.status, 200);
  EXPECT_NE(statusz.body.find("\"tenant_count\":2"), std::string::npos);
  EXPECT_NE(statusz.body.find("\"name\":\"edge-eu\""), std::string::npos);
}

TEST(TenantCatalog, HostileAttributeNamesStayValidJson) {
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  ASSERT_TRUE(catalog.put(specOf("default", dataset::Schema::tiny())).isOk());

  // A quote, a backslash, a control byte and a NUL in one attribute name.
  const std::string name = std::string("q\"b\\s\x01") + '\0' + "z";
  const std::string spec_json =
      "{\"schema\":{\"attributes\":[{\"name\":\"q\\\"b\\\\s\\u0001\\u0000z\","
      "\"elements\":[\"x\",\"y\"]}]}}";
  ASSERT_EQ(
      router.route(routerRequest("PUT", "/api/v1/tenants/odd", spec_json))
          .status,
      201);

  const auto attributeName = [](const svc::JsonValue& tenant) {
    const svc::JsonValue* schema = tenant.find("schema");
    EXPECT_NE(schema, nullptr);
    if (schema == nullptr) return std::string();
    const svc::JsonValue* attributes = schema->find("attributes");
    EXPECT_TRUE(attributes != nullptr && attributes->array_value.size() == 1);
    if (attributes == nullptr || attributes->array_value.empty()) {
      return std::string();
    }
    const svc::JsonValue* attr_name = attributes->array_value[0].find("name");
    return attr_name == nullptr ? std::string() : attr_name->string_value;
  };

  const auto detail = svc::JsonValue::parse(
      router.route(routerRequest("GET", "/api/v1/tenants/odd")).body);
  ASSERT_TRUE(detail.isOk()) << detail.status().toString();
  EXPECT_EQ(attributeName(*detail), name);

  const auto listing = svc::JsonValue::parse(
      router.handleTenantsList(routerRequest("GET", "/api/v1/tenants")).body);
  ASSERT_TRUE(listing.isOk()) << listing.status().toString();
  ASSERT_NE(listing->find("tenants"), nullptr);
  EXPECT_EQ(listing->find("tenants")->array_value.size(), 2u);

  const auto statusz = svc::JsonValue::parse(
      router.handleStatusz(routerRequest("GET", "/statusz")).body);
  ASSERT_TRUE(statusz.isOk()) << statusz.status().toString();
  const svc::JsonValue* tenants = statusz->find("tenants");
  ASSERT_NE(tenants, nullptr);
  bool found = false;
  for (const svc::JsonValue& tenant : tenants->array_value) {
    if (tenant.find("name")->string_value != "odd") continue;
    found = true;
    EXPECT_EQ(attributeName(tenant), name);
  }
  EXPECT_TRUE(found);
}

/// One HTTP/1.1 exchange with a local server; the status code, or -1.
int httpStatus(std::uint16_t port, const std::string& method,
               const std::string& target, const std::string& body = "") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n" +
      "Content-Length: " + std::to_string(body.size()) +
      "\r\nConnection: close\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < request.size();) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t sp = response.find(' ');
  return sp == std::string::npos ? -1 : std::atoi(response.c_str() + sp + 1);
}

/// A tenant spec body with `count` attributes of `cardinality` elements.
std::string attributesSpec(int count, int cardinality) {
  std::string out = "{\"schema\":{\"attributes\":[";
  for (int i = 0; i < count; ++i) {
    out += std::string(i == 0 ? "" : ",") + "{\"name\":\"a" +
           std::to_string(i) + "\",\"elements\":[";
    for (int e = 0; e < cardinality; ++e) {
      out += std::string(e == 0 ? "" : ",") + "\"e" + std::to_string(e) + "\"";
    }
    out += "]}";
  }
  return out + "]}}";
}

TEST(TenantCatalog, RetryAfterSecondsIsBoundedByADay) {
  svc::DatasetCatalog catalog({.pool_threads = 1});
  svc::TenantRouter router(catalog);
  const auto put = [&router](const std::string& name, const char* seconds) {
    return router.route(routerRequest(
        "PUT", "/api/v1/tenants/" + name,
        std::string("{\"schema\":{\"builtin\":\"tiny\"},"
                    "\"retry_after_seconds\":") +
            seconds + "}"));
  };
  EXPECT_EQ(put("day", "86400").status, 201);
  for (const char* seconds : {"86401", "86400.5", "1e25"}) {
    const auto rejected = put("too-long", seconds);
    EXPECT_EQ(rejected.status, 400) << seconds;
    EXPECT_NE(rejected.body.find("retry_after_seconds"), std::string::npos)
        << rejected.body;
  }
  EXPECT_NE(catalog.find("day"), nullptr);
  EXPECT_EQ(catalog.find("too-long"), nullptr);
}

TEST(TenantCatalog, BadTenantSchemasAre400AndTheServerKeepsServing) {
  svc::DatasetCatalog catalog({.pool_threads = 1});
  svc::TenantRouter router(catalog);
  obs::AdminServer server;
  obs::registerObsEndpoints(server);
  router.installEndpoints(server);
  ASSERT_TRUE(server.start().isOk());

  const std::vector<std::string> bad = {
      "{\"schema\":{\"attributes\":[{\"name\":\"a\",\"elements\":"
      "[\"x\",\"x\"]}]}}",
      "{\"schema\":{\"attributes\":[{\"name\":\"a\",\"elements\":[\"x\"]},"
      "{\"name\":\"a\",\"elements\":[\"y\"]}]}}",
      attributesSpec(33, 1),
      attributesSpec(8, 256),  // 2^64 leaves
      attributesSpec(27, 5),   // < 2^64 leaves, but 81-bit packed keys
  };
  for (const std::string& spec : bad) {
    EXPECT_EQ(httpStatus(server.port(), "PUT", "/api/v1/tenants/bad", spec),
              400)
        << spec.substr(0, 80);
    EXPECT_EQ(httpStatus(server.port(), "GET", "/healthz"), 200);
  }
  EXPECT_EQ(catalog.size(), 0u);
  EXPECT_EQ(httpStatus(server.port(), "PUT", "/api/v1/tenants/good",
                       attributesSpec(2, 3)),
            201);
  server.stop();
}

TEST(TenantCatalog, StreamingTenantIngestsThroughTheRouter) {
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);

  const std::string spec_json =
      "{\"schema\":{\"builtin\":\"tiny\"},"
      "\"streaming\":{\"shards\":1,\"window_width\":60,"
      "\"trigger\":\"every-window\",\"localize_threads\":1}}";
  const auto doc = svc::JsonValue::parse(spec_json);
  ASSERT_TRUE(doc.isOk());
  auto spec = svc::parseTenantSpec(*doc, "edge");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  ASSERT_TRUE(catalog.put(std::move(spec.value())).isOk());

  const auto tenant = catalog.find("edge");
  ASSERT_NE(tenant, nullptr);
  const auto engine = tenant->engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_TRUE(engine->running());

  // Two windows of leaf rows for (a1, b1, c1, d1) and (a2, b1, c1, d1).
  const std::string rows =
      "ts,A,B,C,D,real,predict\n"
      "10,a1,b1,c1,d1,30,100\n"
      "10,a2,b1,c1,d1,95,100\n"
      "70,a1,b1,c1,d1,31,100\n";
  const auto accepted = router.route(routerRequest(
      "POST", "/api/v1/tenants/edge/ingest", rows));
  ASSERT_EQ(accepted.status, 200);
  EXPECT_NE(accepted.body.find("\"accepted\":3"), std::string::npos);

  // Malformed rows are a 400 with the line number, nothing ingested.
  const auto rejected = router.route(routerRequest(
      "POST", "/api/v1/tenants/edge/ingest", "10,a1,b1,c1,nope,1,2\n"));
  EXPECT_EQ(rejected.status, 400);
  EXPECT_NE(rejected.body.find("row 1"), std::string::npos);

  engine->drain();
  EXPECT_EQ(engine->stats().ingested, 3u);
  EXPECT_GE(engine->stats().windows_sealed, 1u);
}

TEST(LocalizeService, BadLabelIsA400NamingTheRow) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService service(schema, core::RapMinerConfig{});
  const auto csv = service.handleLocalize(postRequest(
      "A,B,C,D,real,predict,label\na1,b1,c1,d1,1,1,0\na2,b1,c1,d1,1,1,true\n",
      "mode=sync"));
  EXPECT_EQ(csv.status, 400);
  EXPECT_NE(csv.body.find("request body:3: label must be 0, 1 or empty"),
            std::string::npos)
      << csv.body;
  const auto json = service.handleLocalize(postRequest(
      "{\"rows\":[[\"a1\",\"b1\",\"c1\",\"d1\",1,1,1.5]]}", "mode=sync",
      "application/json"));
  EXPECT_EQ(json.status, 400);
  EXPECT_NE(json.body.find("request body:2: label must be 0, 1 or empty"),
            std::string::npos)
      << json.body;
}

TEST(TenantCatalog, IngestUsesTheHardenedCsvTokenizer) {
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  const auto doc = svc::JsonValue::parse(
      "{\"schema\":{\"builtin\":\"tiny\"},"
      "\"streaming\":{\"shards\":1,\"window_width\":60,"
      "\"trigger\":\"every-window\",\"localize_threads\":1}}");
  ASSERT_TRUE(doc.isOk());
  auto spec = svc::parseTenantSpec(*doc, "edge");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  ASSERT_TRUE(catalog.put(std::move(spec.value())).isOk());
  const auto engine = catalog.find("edge")->engine();
  ASSERT_NE(engine, nullptr);
  const std::string path = "/api/v1/tenants/edge/ingest";

  // CRLF line ends, a quoted element name and padded fields.
  const auto crlf = router.route(routerRequest(
      "POST", path,
      "ts,A,B,C,D,real,predict\r\n"
      "10,a1,b1,c1,d1,30,100\r\n"
      "\r\n"
      "10,\"a2\", b1 ,c1,d1, 95 ,100\r\n"));
  ASSERT_EQ(crlf.status, 200) << crlf.body;
  EXPECT_NE(crlf.body.find("\"accepted\":2"), std::string::npos);

  // A quoted comma stays inside its field: one unknown element, named
  // with its row (blank lines count).
  const auto quoted = router.route(routerRequest(
      "POST", path, "10,a1,b1,c1,d1,1,2\n\n10,\"a1,b1\",b1,c1,d1,1,2\n"));
  EXPECT_EQ(quoted.status, 400);
  EXPECT_NE(quoted.body.find("row 3: element 'a1,b1' not in attribute 'A'"),
            std::string::npos)
      << quoted.body;

  // An embedded NUL rejects the whole batch with its row and offset.
  const auto nul = router.route(routerRequest(
      "POST", path, std::string("10,a1,b1,c1,d1,1,2\n10,a") + '\0' +
                        "1,b1,c1,d1,1,2\n"));
  EXPECT_EQ(nul.status, 400);
  EXPECT_NE(nul.body.find("embedded NUL byte at row 2 near offset 23"),
            std::string::npos)
      << nul.body;

  engine->drain();
  EXPECT_EQ(engine->stats().ingested, 2u);
}

// ---------------------------------------------------------------------------
// Crash-safe serving: overload guard, circuit breaker, job journal,
// degraded serving, and the engine supervisor.

TEST(OverloadGuard, ShedsOnlyAfterSustainedQueueDelay) {
  svc::OverloadGuard guard({.target_delay_seconds = 0.05,
                            .interval_seconds = 1.0});
  ASSERT_TRUE(guard.enabled());
  const auto t0 = svc::OverloadGuard::Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<
                    svc::OverloadGuard::Clock::duration>(
                    std::chrono::duration<double>(s));
  };

  // First over-target observation only starts the interval clock.
  EXPECT_FALSE(guard.shouldShedAt(0.2, at(0.0)));
  EXPECT_FALSE(guard.shouldShedAt(0.2, at(0.5)));
  // Sustained past the interval: shed.
  EXPECT_TRUE(guard.shouldShedAt(0.2, at(1.1)));
  EXPECT_TRUE(guard.shedding());
  // Queue drains below target: admission resumes, clock forgotten.
  EXPECT_FALSE(guard.shouldShedAt(0.01, at(1.2)));
  EXPECT_FALSE(guard.shedding());
  // A fresh burst must sustain a full interval again.
  EXPECT_FALSE(guard.shouldShedAt(0.2, at(1.3)));
  EXPECT_TRUE(guard.shouldShedAt(0.2, at(2.4)));

  svc::OverloadGuard disabled;
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.shouldShedAt(1e9, t0));
}

TEST(CircuitBreaker, ClosedOpenHalfOpenLifecycle) {
  svc::CircuitBreaker breaker({.failure_threshold = 3,
                               .open_seconds = 5.0,
                               .half_open_probes = 2});
  ASSERT_TRUE(breaker.enabled());
  const auto t0 = svc::CircuitBreaker::Clock::now();
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<
                    svc::CircuitBreaker::Clock::duration>(
                    std::chrono::duration<double>(s));
  };

  EXPECT_TRUE(breaker.allowAt(t0));
  breaker.recordFailureAt(t0);
  breaker.recordFailureAt(t0);
  EXPECT_EQ(breaker.state(), svc::BreakerState::kClosed);
  EXPECT_EQ(breaker.consecutiveFailures(), 2u);
  // A success resets the consecutive count: failures must be truly
  // consecutive to open the breaker.
  breaker.recordSuccess();
  breaker.recordFailureAt(t0);
  breaker.recordFailureAt(t0);
  EXPECT_EQ(breaker.state(), svc::BreakerState::kClosed);
  breaker.recordFailureAt(t0);
  EXPECT_EQ(breaker.state(), svc::BreakerState::kOpen);

  // Open: everything shed until open_seconds elapse.
  EXPECT_FALSE(breaker.allowAt(at(1.0)));
  EXPECT_NEAR(breaker.secondsUntilProbeAt(at(1.0)), 4.0, 1e-9);
  // Half-open: exactly half_open_probes admissions.
  EXPECT_TRUE(breaker.allowAt(at(5.5)));
  EXPECT_EQ(breaker.state(), svc::BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allowAt(at(5.6)));
  EXPECT_FALSE(breaker.allowAt(at(5.7)));
  // Both probes succeed: closed again.
  breaker.recordSuccess();
  EXPECT_EQ(breaker.state(), svc::BreakerState::kHalfOpen);
  breaker.recordSuccess();
  EXPECT_EQ(breaker.state(), svc::BreakerState::kClosed);

  // A failed probe reopens immediately (no threshold in half-open).
  breaker.tripAt(at(10.0));
  EXPECT_EQ(breaker.state(), svc::BreakerState::kOpen);
  EXPECT_TRUE(breaker.allowAt(at(16.0)));
  breaker.recordFailureAt(at(16.1));
  EXPECT_EQ(breaker.state(), svc::BreakerState::kOpen);
  EXPECT_FALSE(breaker.allowAt(at(16.2)));

  svc::CircuitBreaker disabled(svc::CircuitBreaker::Options{});
  EXPECT_FALSE(disabled.enabled());
  disabled.recordFailure();
  disabled.trip();
  EXPECT_TRUE(disabled.allow());
  EXPECT_EQ(disabled.state(), svc::BreakerState::kClosed);
}

TEST(ResultCache, PeekStaleIgnoresTtlAndTouchesNothing) {
  svc::ResultCache cache({.capacity = 4, .ttl_seconds = 10.0});
  const auto t0 = Clock::now();
  cache.putAt(7, "doc", t0);
  // Past TTL: getAt expires the entry's *lookup*, peekStale still serves.
  EXPECT_TRUE(cache.peekStale(7).has_value());
  const auto later = t0 + std::chrono::seconds(60);
  EXPECT_EQ(cache.peekStale(7).value(), "doc");
  const auto before = cache.stats();
  EXPECT_FALSE(cache.peekStale(99).has_value());
  const auto after = cache.stats();
  EXPECT_EQ(before.hits, after.hits);
  EXPECT_EQ(before.misses, after.misses);
  EXPECT_FALSE(cache.getAt(7, later).has_value());  // TTL still enforced
}

/// Temp-dir fixture for journal files.
class JournalDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rap_svc_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(JournalDir, AppendCompleteRecoverAndCompact) {
  const std::string file = path("jobs.rapjrnl");
  svc::JobJournal::Record record;
  record.tenant = "default";
  record.priority = 2;
  record.content_type = "csv";
  record.query = "mode=async&k=3";
  record.body = "A,B,real,predict\na1,b1,1,2\n";  // newlines survive framing

  {
    auto journal = svc::JobJournal::open({.path = file});
    ASSERT_TRUE(journal.isOk()) << journal.status().toString();
    const auto first = (*journal)->append(record);
    ASSERT_TRUE(first.isOk());
    record.query = "mode=async&k=4";
    const auto second = (*journal)->append(record);
    ASSERT_TRUE(second.isOk());
    EXPECT_GT(*second, *first);
    (*journal)->complete(*first, "done");
    EXPECT_EQ((*journal)->liveCount(), 1u);
  }

  // Reopen: the completed record is gone, the live one is intact
  // byte-for-byte, and ids never rewind.
  {
    auto journal = svc::JobJournal::open({.path = file});
    ASSERT_TRUE(journal.isOk()) << journal.status().toString();
    ASSERT_EQ((*journal)->liveCount(), 1u);
    const auto pending = (*journal)->pending();
    EXPECT_EQ(pending[0].query, "mode=async&k=4");
    EXPECT_EQ(pending[0].body, record.body);
    EXPECT_EQ(pending[0].priority, 2);
    EXPECT_EQ(pending[0].tenant, "default");
    const auto next = (*journal)->append(record);
    ASSERT_TRUE(next.isOk());
    EXPECT_GT(*next, pending[0].id);
    EXPECT_EQ((*journal)->recoveryDropped(), 0u);
  }

  // A torn tail (crash mid-append) drops only the damage.
  {
    std::ofstream out(file, std::ios::binary | std::ios::app);
    out << "A 99 default 0 csv 00ff 5 5\ntorn";
  }
  {
    auto journal = svc::JobJournal::open({.path = file});
    ASSERT_TRUE(journal.isOk()) << journal.status().toString();
    EXPECT_EQ((*journal)->liveCount(), 2u);
    EXPECT_GT((*journal)->recoveryDropped(), 0u);
  }

  // Never adopt (and later overwrite) a file that was not ours.
  const std::string foreign = path("not_a_journal");
  { std::ofstream(foreign) << "something else entirely\n"; }
  EXPECT_FALSE(svc::JobJournal::open({.path = foreign}).isOk());
}

TEST_F(JournalDir, ReplayedCompletedWorkIsBitIdenticalViaTheCache) {
  const auto schema = dataset::Schema::tiny();
  auto journal = svc::JobJournal::open({.path = path("jobs.rapjrnl")});
  ASSERT_TRUE(journal.isOk());

  svc::LocalizeService::Options options = smallServiceOptions();
  options.journal = journal->get();
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);

  // The original admission ran to completion and filled the cache, but
  // the crash ate its C record.  (Same body + overrides = same key.)
  const std::string body = csvBodyOf(demoTable(schema));
  const auto original = service.handleLocalize(postRequest(body));
  ASSERT_EQ(original.status, 200);

  svc::JobJournal::Record record;
  record.tenant = "default";
  record.content_type = "csv";
  record.query = "mode=async";
  record.body = body;
  const auto record_id = (*journal)->append(record);
  ASSERT_TRUE(record_id.isOk());
  record.id = *record_id;

  const auto job = service.replayJob(record);
  ASSERT_TRUE(job.isOk()) << job.status().toString();
  service.jobs().drain();

  const auto status = service.jobs().status(*job);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, svc::JobState::kDone);
  EXPECT_TRUE(status->cache_hit);
  // Bit-identical to the original response, stats tail included.
  EXPECT_EQ(status->result_json, original.body);
  // on_terminal wrote the completion marker.
  EXPECT_EQ((*journal)->liveCount(), 0u);
}

TEST_F(JournalDir, ResultDocumentIgnoresPoolOccupancyAndReplay) {
  // With the cache off every request runs its own search, and the
  // search's width depends on how many job workers are idle.  The
  // document must not: the same snapshot renders the same bytes (wall
  // times aside) on an idle pool, beside a saturating async load, and
  // when a journaled job is replayed.
  const auto schema = dataset::Schema::tiny();
  auto journal = svc::JobJournal::open({.path = path("jobs.rapjrnl")});
  ASSERT_TRUE(journal.isOk());
  svc::LocalizeService::Options options = smallServiceOptions();
  options.jobs.workers = 2;
  options.jobs.queue_capacity = 64;
  options.cache.capacity = 0;
  options.journal = journal->get();
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  const auto idle = service.handleLocalize(postRequest(body, "mode=sync"));
  ASSERT_EQ(idle.status, 200) << idle.body;
  EXPECT_EQ(idle.body.find("search_threads"), std::string::npos);

  for (int i = 0; i < 24; ++i) {
    ASSERT_EQ(service.handleLocalize(postRequest(body, "mode=async")).status,
              202);
  }
  const auto busy = service.handleLocalize(postRequest(body, "mode=sync"));
  ASSERT_EQ(busy.status, 200) << busy.body;
  EXPECT_EQ(withoutTimes(busy.body), withoutTimes(idle.body));
  service.jobs().drain();
  for (const auto& job : service.jobs().list()) {
    ASSERT_EQ(job.state, svc::JobState::kDone);
    EXPECT_EQ(withoutTimes(job.result_json), withoutTimes(idle.body));
  }

  svc::JobJournal::Record record;
  record.tenant = "default";
  record.content_type = "csv";
  record.query = "mode=async";
  record.body = body;
  const auto record_id = (*journal)->append(record);
  ASSERT_TRUE(record_id.isOk());
  record.id = *record_id;
  const auto replayed = service.replayJob(record);
  ASSERT_TRUE(replayed.isOk()) << replayed.status().toString();
  service.jobs().drain();
  const auto status = service.jobs().status(*replayed);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, svc::JobState::kDone);
  EXPECT_FALSE(status->cache_hit);
  EXPECT_EQ(withoutTimes(status->result_json), withoutTimes(idle.body));
}

TEST_F(JournalDir, SyncRequestsNeverTouchTheJournal) {
  // The journal makes async admissions durable; it must stay off the
  // sync path entirely.  A sync miss and a sync cache hit leave no
  // record, no byte and no append; one async admission appends one.
  const auto schema = dataset::Schema::tiny();
  obs::setMetricsEnabled(true);  // before open(): it binds the counter
  auto& appended =
      obs::defaultRegistry().counter("rap_svc_journal_appended_total");
  const std::string file = path("jobs.rapjrnl");
  auto journal = svc::JobJournal::open({.path = file});
  ASSERT_TRUE(journal.isOk()) << journal.status().toString();
  svc::LocalizeService::Options options = smallServiceOptions();
  options.journal = journal->get();
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  const std::uint64_t appended_before = appended.value();
  const auto bytes_before = std::filesystem::file_size(file);
  for (const char* expected : {"miss", "hit"}) {
    const auto response = service.handleLocalize(postRequest(body));
    ASSERT_EQ(response.status, 200) << response.body;
    const auto* cache_state = headerOf(response, "X-Rap-Cache");
    ASSERT_NE(cache_state, nullptr);
    EXPECT_EQ(*cache_state, expected);
    EXPECT_EQ((*journal)->liveCount(), 0u) << expected;
    EXPECT_EQ(std::filesystem::file_size(file), bytes_before) << expected;
    EXPECT_EQ(appended.value(), appended_before) << expected;
  }

  const auto accepted = service.handleLocalize(postRequest(body, "mode=async"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  EXPECT_EQ(appended.value(), appended_before + 1);
  EXPECT_GT(std::filesystem::file_size(file), bytes_before);
  service.jobs().drain();
  EXPECT_EQ((*journal)->liveCount(), 0u);  // the job completed
  EXPECT_EQ(appended.value(), appended_before + 1);
  obs::setMetricsEnabled(false);
}

TEST_F(JournalDir, KillDashNineLosesNoAcceptedJobs) {
  const auto schema = dataset::Schema::tiny();
  const std::string file = path("jobs.rapjrnl");
  const std::string body = csvBodyOf(demoTable(schema));
  constexpr int kJobs = 8;
  const auto queryOf = [](int i) {
    return util::strFormat("mode=async&t_conf=0.7%d", i);  // distinct keys
  };

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: accept kJobs async admissions with workers paused (so none
    // executes), then die hard.  No gtest machinery after fork — plain
    // _exit codes signal setup failures.
    auto journal = svc::JobJournal::open({.path = file});
    if (!journal.isOk()) _exit(10);
    svc::LocalizeService::Options options;
    options.jobs.queue_capacity = kJobs + 4;
    options.jobs.workers = 1;
    options.journal = journal->get();
    svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
    service.jobs().pause();
    for (int i = 0; i < kJobs; ++i) {
      if (service.handleLocalize(postRequest(body, queryOf(i))).status != 202) {
        _exit(11);
      }
    }
    ::raise(SIGKILL);
    _exit(12);  // unreachable
  }

  int wait_status = 0;
  ASSERT_EQ(::waitpid(child, &wait_status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wait_status));
  ASSERT_EQ(WTERMSIG(wait_status), SIGKILL);

  // Restart: every accepted job replays and reaches a terminal state.
  auto journal = svc::JobJournal::open({.path = file});
  ASSERT_TRUE(journal.isOk()) << journal.status().toString();
  EXPECT_EQ((*journal)->liveCount(), static_cast<std::size_t>(kJobs));

  svc::DatasetCatalog catalog({.pool_threads = 2, .journal = journal->get()});
  svc::TenantSpec spec = specOf("default", schema);
  ASSERT_TRUE(catalog.put(std::move(spec)).isOk());
  const auto replay = svc::replayJournal(**journal, catalog);
  EXPECT_EQ(replay.replayed, static_cast<std::size_t>(kJobs));
  EXPECT_EQ(replay.dropped, 0u);

  const auto tenant = catalog.find("default");
  ASSERT_NE(tenant, nullptr);
  tenant->service->jobs().drain();
  EXPECT_EQ((*journal)->liveCount(), 0u);  // all terminal, all marked

  // Each replayed job renders the same root causes the uninterrupted
  // service would have: compare against a fresh reference execution.
  svc::LocalizeService reference(schema, core::RapMinerConfig{},
                                 smallServiceOptions());
  const auto jobs = tenant->service->jobs().list();
  ASSERT_EQ(jobs.size(), static_cast<std::size_t>(kJobs));
  for (const svc::JobStatus& job : jobs) {
    ASSERT_EQ(job.state, svc::JobState::kDone) << job.error;
  }
  // list() order is not the admission order, so match every reference
  // result against the replayed set by its pattern portion.
  for (int i = 0; i < kJobs; ++i) {
    const auto expected = reference.handleLocalize(
        postRequest(body, util::strFormat("mode=sync&t_conf=0.7%d", i)));
    ASSERT_EQ(expected.status, 200);
    bool matched = false;
    for (const svc::JobStatus& job : jobs) {
      if (patternsOf(job.result_json) == patternsOf(expected.body)) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "no replayed job matches t_conf=0.7" << i;
  }
}

TEST(LocalizeService, DeadlineValidatedAndClampedToTenantMax) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService::Options options = smallServiceOptions();
  options.max_deadline_seconds = 1.5;
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  EXPECT_EQ(service.handleLocalize(postRequest(body, "deadline=-1")).status,
            400);

  // Above the cap: clamped, and the effective value is surfaced in the
  // job document so callers see the budget their job actually ran with.
  const auto accepted = service.handleLocalize(
      postRequest(body, "mode=async&deadline=99"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  service.jobs().drain();
  obs::HttpRequest get;
  get.method = "GET";
  get.path = "/api/v1/jobs/1";
  const auto job = service.handleJobGet(get);
  ASSERT_EQ(job.status, 200);
  EXPECT_NE(job.body.find("\"deadline_seconds\":1.500000"),
            std::string::npos)
      << job.body;

  // deadline=0 ("unbounded") clamps too: no request outlives the cap.
  const auto unbounded = service.handleLocalize(
      postRequest(body, "mode=async&deadline=0&t_conf=0.7"));
  ASSERT_EQ(unbounded.status, 202) << unbounded.body;
  service.jobs().drain();
  get.path = "/api/v1/jobs/2";
  EXPECT_NE(service.handleJobGet(get).body.find(
                "\"deadline_seconds\":1.500000"),
            std::string::npos);
}

TEST(LocalizeService, OpenBreakerServesStaleOrShedsWithRetryAfter) {
  const auto schema = dataset::Schema::tiny();
  obs::setMetricsEnabled(true);
  auto& degraded = obs::defaultRegistry().counter(
      "rap_svc_degraded_served_total", {{"tenant", "default"}});
  const std::uint64_t degraded_before = degraded.value();

  svc::LocalizeService::Options options = smallServiceOptions();
  options.breaker.failure_threshold = 1;
  // TTL so small the cached entry is stale by the time the breaker
  // serves it — degraded serving ignores TTL on purpose.
  options.cache.ttl_seconds = 1e-9;
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  const auto original = service.handleLocalize(postRequest(body));
  ASSERT_EQ(original.status, 200);

  service.breaker().trip();
  ASSERT_EQ(service.breaker().state(), svc::BreakerState::kOpen);

  // Known request: 200 from the (stale) cache, flagged degraded,
  // bit-identical to the original document.
  const auto stale = service.handleLocalize(postRequest(body));
  EXPECT_EQ(stale.status, 200);
  EXPECT_EQ(stale.body, original.body);
  const auto* degraded_header = headerOf(stale, "X-Rap-Degraded");
  ASSERT_NE(degraded_header, nullptr);
  EXPECT_EQ(*degraded_header, "stale");
  EXPECT_EQ(degraded.value(), degraded_before + 1);

  // Unknown request: shed with the tenant_unavailable envelope and a
  // jittered Retry-After.
  const auto shed =
      service.handleLocalize(postRequest(body, "t_conf=0.7"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("tenant_unavailable"), std::string::npos);
  const auto* retry_after = headerOf(shed, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  const double retry_seconds = std::stod(*retry_after);
  EXPECT_GE(retry_seconds, 2.0);
  EXPECT_LE(retry_seconds, 4.0);
  obs::setMetricsEnabled(false);
}

TEST(LocalizeService, HalfOpenProbeClosesTheBreakerOnSuccess) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService::Options options = smallServiceOptions();
  options.breaker.failure_threshold = 1;
  options.breaker.open_seconds = 0.05;
  options.breaker.half_open_probes = 1;
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  service.breaker().trip();
  EXPECT_EQ(service.handleLocalize(postRequest(body)).status, 503);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // The probe request runs for real; its success closes the breaker.
  const auto probe = service.handleLocalize(postRequest(body));
  EXPECT_EQ(probe.status, 200);
  EXPECT_EQ(service.breaker().state(), svc::BreakerState::kClosed);
  EXPECT_EQ(service.handleLocalize(postRequest(body)).status, 200);
}

TEST(JobManager, OverloadGuardShedsWithUnavailable) {
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService::Options options = smallServiceOptions();
  options.jobs.queue_capacity = 16;
  options.jobs.overload.target_delay_seconds = 0.01;
  options.jobs.overload.interval_seconds = 0.05;
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  service.jobs().pause();  // head-of-line delay grows unboundedly
  const std::string body = csvBodyOf(demoTable(schema));

  ASSERT_EQ(
      service.handleLocalize(postRequest(body, "mode=async&t_conf=0.7"))
          .status,
      202);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Over target, inside the interval: still admitted.
  ASSERT_EQ(
      service.handleLocalize(postRequest(body, "mode=async&t_conf=0.8"))
          .status,
      202);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Sustained a full interval: shed with the `overloaded` envelope.
  const auto shed =
      service.handleLocalize(postRequest(body, "mode=async&t_conf=0.9"));
  EXPECT_EQ(shed.status, 429);
  EXPECT_NE(shed.body.find("overloaded"), std::string::npos);
  EXPECT_NE(headerOf(shed, "Retry-After"), nullptr);

  service.jobs().resume();
  service.jobs().drain();
  // Queue drained: admission recovers.
  EXPECT_EQ(
      service.handleLocalize(postRequest(body, "mode=async&t_conf=0.85"))
          .status,
      202);
  service.jobs().drain();
}

TEST_F(JournalDir, SupervisorRestartsCrashedEngineFromCheckpoint) {
  svc::DatasetCatalog catalog({.pool_threads = 2});
  const std::string checkpoint = path("engine.rapchkpt");

  const std::string spec_json =
      "{\"schema\":{\"builtin\":\"tiny\"},"
      "\"streaming\":{\"shards\":1,\"window_width\":60,"
      "\"localize_threads\":1,"
      "\"checkpoint_path\":\"" + checkpoint + "\"}}";
  const auto doc = svc::JsonValue::parse(spec_json);
  ASSERT_TRUE(doc.isOk());
  auto spec = svc::parseTenantSpec(*doc, "edge");
  ASSERT_TRUE(spec.isOk()) << spec.status().toString();
  EXPECT_EQ(spec->checkpoint_path, checkpoint);
  ASSERT_TRUE(catalog.put(std::move(spec.value())).isOk());

  const auto tenant = catalog.find("edge");
  ASSERT_NE(tenant, nullptr);
  const auto original = tenant->engine();
  ASSERT_NE(original, nullptr);

  // Ingest one window, checkpoint it, then "crash".
  stream::StreamEvent event;
  event.ts = 10;
  event.leaf = dataset::AttributeCombination({0, 0, 0, 0});
  event.v = 30.0;
  event.f = 100.0;
  ASSERT_EQ(original->ingest(event).accepted, 1u);
  ASSERT_TRUE(original->checkpoint(checkpoint).isOk());
  original->stop();

  svc::EngineSupervisor supervisor(catalog, {.max_restarts = 3});
  const auto t0 = std::chrono::steady_clock::now();
  supervisor.sweepAt(t0);

  const auto restarted = tenant->engine();
  ASSERT_NE(restarted, nullptr);
  EXPECT_NE(restarted.get(), original.get());
  EXPECT_TRUE(restarted->running());
  EXPECT_EQ(supervisor.stats().restarts, 1u);
  EXPECT_EQ(supervisor.stats().restores, 1u);  // seeded from the checkpoint
  EXPECT_FALSE(tenant->quarantined());

  // A healthy sweep resets the failure budget (and the engine ingests).
  supervisor.sweepAt(t0 + std::chrono::seconds(1));
  ASSERT_EQ(restarted->ingest(event).accepted, 1u);
}

TEST(EngineSupervisor, QuarantinesACrashLoopingTenant) {
  svc::DatasetCatalog catalog({.pool_threads = 2});
  svc::TenantRouter router(catalog);
  const std::string spec_json =
      "{\"schema\":{\"builtin\":\"tiny\"},"
      "\"streaming\":{\"shards\":1,\"window_width\":60,"
      "\"localize_threads\":1}}";
  const auto doc = svc::JsonValue::parse(spec_json);
  auto spec = svc::parseTenantSpec(*doc, "flaky");
  ASSERT_TRUE(spec.isOk());
  ASSERT_TRUE(catalog.put(std::move(spec.value())).isOk());
  const auto tenant = catalog.find("flaky");

  svc::EngineSupervisor supervisor(
      catalog, {.backoff_initial_seconds = 0.1, .max_restarts = 2});
  auto now = std::chrono::steady_clock::now();

  // Crash-loop: every restart is dead again by the next sweep.
  std::size_t sweeps = 0;
  while (!tenant->quarantined() && sweeps < 32) {
    if (auto engine = tenant->engine()) engine->stop();
    supervisor.sweepAt(now);
    now += std::chrono::seconds(1);  // outruns every backoff
    ++sweeps;
  }
  EXPECT_TRUE(tenant->quarantined());
  EXPECT_GE(supervisor.stats().failures, 2u);
  EXPECT_EQ(supervisor.stats().quarantines, 1u);

  // Quarantined tenants shed sub-resource requests with 503.
  const auto shed = router.route(
      routerRequest("POST", "/api/v1/tenants/flaky/ingest", "x"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("tenant_unavailable"), std::string::npos);
  // The tenant resource itself (GET) still answers, showing the state.
  const auto detail =
      router.route(routerRequest("GET", "/api/v1/tenants/flaky"));
  EXPECT_EQ(detail.status, 200);
  EXPECT_NE(detail.body.find("\"quarantined\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault-gated chaos coverage (compiled in only with RAP_FAULT_INJECTION).

class SvcFault : public JournalDir {
 protected:
  void SetUp() override {
    JournalDir::SetUp();
    fault::Registry::instance().reset();
  }
  void TearDown() override {
    fault::Registry::instance().reset();
    JournalDir::TearDown();
  }
};

TEST_F(SvcFault, JournalAppendFaultShedsWith503) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault injection compiled out";
  const auto schema = dataset::Schema::tiny();
  auto journal = svc::JobJournal::open({.path = path("jobs.rapjrnl")});
  ASSERT_TRUE(journal.isOk());
  svc::LocalizeService::Options options = smallServiceOptions();
  options.journal = journal->get();
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  const auto armed = fault::armFromSpec("svc.journal.append=error");
  ASSERT_TRUE(armed.isOk()) << armed.status().toString();
  EXPECT_EQ(armed.value(), 1);

  const auto shed = service.handleLocalize(postRequest(body, "mode=async"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("journal_unavailable"), std::string::npos);
  EXPECT_NE(headerOf(shed, "Retry-After"), nullptr);
  EXPECT_EQ((*journal)->liveCount(), 0u);  // nothing half-accepted

  // Sync requests never touch the journal: unaffected.
  fault::Registry::instance().reset();
  EXPECT_EQ(service.handleLocalize(postRequest(body)).status, 200);
}

TEST_F(SvcFault, ReplayFaultDropsRecordsInsteadOfAbortingStartup) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault injection compiled out";
  const auto schema = dataset::Schema::tiny();
  const std::string file = path("jobs.rapjrnl");
  {
    auto journal = svc::JobJournal::open({.path = file});
    ASSERT_TRUE(journal.isOk());
    svc::JobJournal::Record record;
    record.tenant = "default";
    record.content_type = "csv";
    record.query = "mode=async";
    record.body = csvBodyOf(demoTable(schema));
    ASSERT_TRUE((*journal)->append(record).isOk());
  }

  auto journal = svc::JobJournal::open({.path = file});
  ASSERT_TRUE(journal.isOk());
  svc::DatasetCatalog catalog({.pool_threads = 2, .journal = journal->get()});
  ASSERT_TRUE(catalog.put(specOf("default", schema)).isOk());

  ASSERT_TRUE(fault::armFromSpec("svc.journal.replay=error").isOk());
  const auto replay = svc::replayJournal(**journal, catalog);
  EXPECT_EQ(replay.replayed, 0u);
  EXPECT_EQ(replay.dropped, 1u);
  EXPECT_EQ((*journal)->liveCount(), 0u);  // completed as "dropped"
}

TEST_F(SvcFault, BreakerFaultTripsTheBreakerOpen) {
  if (!fault::kCompiledIn) GTEST_SKIP() << "fault injection compiled out";
  const auto schema = dataset::Schema::tiny();
  svc::LocalizeService::Options options = smallServiceOptions();
  options.breaker.failure_threshold = 100;  // would never open on its own
  svc::LocalizeService service(schema, core::RapMinerConfig{}, options);
  const std::string body = csvBodyOf(demoTable(schema));

  ASSERT_TRUE(fault::armFromSpec("svc.breaker=error:1:7:0:0:1").isOk());
  const auto shed = service.handleLocalize(postRequest(body));
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(service.breaker().state(), svc::BreakerState::kOpen);
}

TEST(FaultSpec, ArmFromSpecParsesAndRejects) {
  fault::Registry::instance().reset();
  const auto armed =
      fault::armFromSpec("svc.tenant=error; svc.journal.append=drop:0.5:42");
  ASSERT_TRUE(armed.isOk()) << armed.status().toString();
  EXPECT_EQ(armed.value(), 2);

  EXPECT_FALSE(fault::armFromSpec("missing-equals").isOk());
  EXPECT_FALSE(fault::armFromSpec("p=banana").isOk());
  EXPECT_FALSE(fault::armFromSpec("p=error:1.5").isOk());
  EXPECT_FALSE(fault::armFromSpec("p=error:0.5:-1").isOk());
  fault::Registry::instance().reset();
}

}  // namespace
}  // namespace rap
