#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/rapminer.h"
#include "dataset/cuboid.h"
#include "obs/obs.h"
#include "svc/json_value.h"
#include "util/logging.h"

namespace rap::obs {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Parses `text` as one JSON document, failing the test when it is not.
svc::JsonValue parseJson(const std::string& text) {
  auto doc = svc::JsonValue::parse(text);
  EXPECT_TRUE(doc.isOk()) << doc.status().toString() << " in " << text;
  return doc.isOk() ? std::move(doc.value()) : svc::JsonValue{};
}

/// Asserts that members `keys` of `object` are all JSON null.
void expectNullMembers(const svc::JsonValue* object,
                       std::initializer_list<const char*> keys) {
  ASSERT_NE(object, nullptr);
  for (const char* key : keys) {
    const svc::JsonValue* member = object->find(key);
    ASSERT_NE(member, nullptr) << key;
    EXPECT_TRUE(member->isNull()) << key;
  }
}

// ---------------------------------------------------------------- Counter

TEST(Counter, StartsAtZeroAndIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------------ Gauge

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Gauge, ConcurrentAddsAreLossless) {
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads * kPerThread));
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BucketsByUpperBoundInclusive) {
  Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (inclusive)
  h.observe(5.0);    // <= 10
  h.observe(100.5);  // +Inf
  const auto counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 100.5);
}

TEST(Histogram, ConcurrentObservesPreserveCount) {
  Histogram h(exponentialBuckets(1e-3, 10.0, 4));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t) * 0.01);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto c : h.bucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.count());
}

TEST(Histogram, BucketHelpers) {
  EXPECT_EQ(exponentialBuckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_EQ(linearBuckets(0.0, 0.5, 3), (std::vector<double>{0.0, 0.5, 1.0}));
}

// --------------------------------------------------------------- Registry

TEST(MetricsRegistry, SameNameAndLabelsSameInstance) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total");
  Counter& b = registry.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.increment();
  EXPECT_EQ(b.value(), 1u);
}

TEST(MetricsRegistry, DistinctLabelsDistinctSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x_total", {{"layer", "1"}});
  Counter& b = registry.counter("x_total", {{"layer", "2"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(registry.seriesCount(), 2u);
}

TEST(MetricsRegistry, ConcurrentLookupsAndIncrements) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("hot_total").increment();
        registry.counter("labeled_total", {{"shard", std::to_string(i % 3)}})
            .increment();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("hot_total").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t labeled = 0;
  for (int shard = 0; shard < 3; ++shard) {
    labeled += registry.counter("labeled_total",
                                {{"shard", std::to_string(shard)}})
                   .value();
  }
  EXPECT_EQ(labeled, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, PrometheusExposition) {
  MetricsRegistry registry;
  registry.counter("rap_test_events_total", {{"kind", "a"}}).increment(3);
  registry.gauge("rap_test_state").set(1.0);
  Histogram& h = registry.histogram("rap_test_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);

  const std::string text = registry.renderPrometheus();
  EXPECT_NE(text.find("# TYPE rap_test_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rap_test_events_total{kind=\"a\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rap_test_state gauge"), std::string::npos);
  EXPECT_NE(text.find("rap_test_state 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rap_test_seconds histogram"), std::string::npos);
  // Cumulative buckets: 1 at le=0.1, 2 at le=1, 3 at +Inf.
  EXPECT_NE(text.find("rap_test_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rap_test_seconds_bucket{le=\"1\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rap_test_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rap_test_seconds_count 3"), std::string::npos);
  EXPECT_NE(text.find("rap_test_seconds_sum"), std::string::npos);
}

TEST(MetricsRegistry, PrometheusEscapesHostileLabelValues) {
  MetricsRegistry registry;
  // Exposition-spec escapes inside a label value: backslash, double
  // quote, and line feed.  A raw newline would split the sample line and
  // corrupt the whole scrape.
  registry.counter("rap_test_total", {{"path", "C:\\tmp\\\"x\"\nnext"}})
      .increment();
  const std::string text = registry.renderPrometheus();
  EXPECT_NE(
      text.find("rap_test_total{path=\"C:\\\\tmp\\\\\\\"x\\\"\\nnext\"} 1"),
      std::string::npos);
  // No literal newline may survive inside the braces.
  const std::size_t open = text.find("rap_test_total{");
  ASSERT_NE(open, std::string::npos);
  const std::size_t close = text.find('}', open);
  ASSERT_NE(close, std::string::npos);
  EXPECT_EQ(text.substr(open, close - open).find('\n'), std::string::npos);
  // The JSON exposition of the same series must stay valid JSON (its
  // own escaping, not Prometheus's).
  const std::string json = registry.renderJson();
  EXPECT_NE(json.find("C:\\\\tmp\\\\\\\"x\\\"\\nnext"), std::string::npos);
}

TEST(BuildInfo, GaugeCarriesBinaryIdentity) {
  MetricsRegistry registry;
  registerBuildInfo(registry);
  registerBuildInfo(registry);  // idempotent: still one series
  EXPECT_EQ(registry.seriesCount(), 1u);
  const std::string text = registry.renderPrometheus();
  const BuildInfo& info = buildInfo();
  EXPECT_NE(text.find("# TYPE rap_build_info gauge"), std::string::npos);
  EXPECT_NE(text.find(std::string("version=\"") + info.version + "\""),
            std::string::npos);
  EXPECT_NE(text.find(std::string("build_type=\"") + info.build_type + "\""),
            std::string::npos);
  EXPECT_NE(text.find(std::string("fault_injection=\"") +
                      (info.fault_injection ? "on" : "off") + "\""),
            std::string::npos);
  EXPECT_NE(buildInfoJson().find("\"compiler\":"), std::string::npos);
}

TEST(MetricsRegistry, JsonExposition) {
  MetricsRegistry registry;
  registry.counter("events_total", {{"kind", "x"}}).increment(7);
  registry.histogram("lat_seconds", {0.5}).observe(0.25);

  const std::string json = registry.renderJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"kind\":\"x\"}"), std::string::npos);
  EXPECT_NE(json.find("\"value\":7"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(MetricsRegistry, NonFiniteGaugeAndSumAreJsonNull) {
  MetricsRegistry registry;
  registry.gauge("nan_gauge").set(kNaN);
  registry.gauge("inf_gauge").set(-kInf);
  registry.histogram("inf_seconds", {1.0}).observe(kInf);

  const svc::JsonValue doc = parseJson(registry.renderJson());
  const svc::JsonValue* metrics = doc.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_EQ(metrics->array_value.size(), 3u);
  for (const svc::JsonValue& family : metrics->array_value) {
    const svc::JsonValue* series = family.find("series");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->array_value.size(), 1u);
    const bool histogram = family.find("type")->string_value == "histogram";
    expectNullMembers(&series->array_value[0], {histogram ? "sum" : "value"});
  }
}

TEST(MetricsRegistry, GlobalGateDefaultsOff) {
  // The process-wide gate must start disabled so uninstrumented binaries
  // pay nothing; tests that enable it restore the default.
  EXPECT_FALSE(metricsEnabled());
}

TEST(MetricsRegistry, LocalizePublishesPerLayerAggregateAndMergeSeconds) {
  // Every layer a localize() searched gets one observation in both the
  // aggregate and the merge histogram (merge = layer seconds minus
  // aggregate seconds), labelled with the layer.
  const dataset::Schema schema = dataset::Schema::tiny();
  dataset::LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const bool anomalous = leaf.slot(0) == 0 && leaf.slot(1) == 0;
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }
  core::RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  const auto series = [](const char* name, const std::string& layer) {
    return &defaultRegistry().histogram(name, exponentialBuckets(1e-5, 4.0, 10),
                                        {{"layer", layer}});
  };

  setMetricsEnabled(true);
  const auto result = core::RapMiner(config).localize(table, 0);
  setMetricsEnabled(false);

  ASSERT_FALSE(result.stats.layers.empty());
  for (const auto& layer : result.stats.layers) {
    const std::string label = std::to_string(layer.layer);
    EXPECT_GE(series("rap_search_layer_aggregate_seconds", label)->count(), 1u)
        << "layer " << label;
    EXPECT_GE(series("rap_search_layer_merge_seconds", label)->count(), 1u)
        << "layer " << label;
  }
  const std::string text = defaultRegistry().renderPrometheus();
  EXPECT_NE(text.find("rap_search_layer_aggregate_seconds_count{layer=\"1\"}"),
            std::string::npos);
  EXPECT_NE(text.find("rap_search_layer_merge_seconds_count{layer=\"1\"}"),
            std::string::npos);
}

// ------------------------------------------------------------------ Trace

TEST(Trace, DisabledSpansRecordNothing) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  ASSERT_FALSE(tracingEnabled());
  {
    RAP_TRACE_SPAN("should_not_appear", {{"x", 1}});
  }
  EXPECT_EQ(recorder.eventCount(), 0u);
}

TEST(Trace, NestedSpansAreContainedIntervals) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(true);
  {
    RAP_TRACE_SPAN("outer", {{"layer", 1}});
    {
      RAP_TRACE_SPAN("inner", {{"layer", 2}, {"note", "deep"}});
    }
  }
  setTracingEnabled(false);

  const auto events = recorder.snapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const auto& event : events) {
    if (std::string(event.name) == "outer") outer = &event;
    if (std::string(event.name) == "inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, and the inner interval nests inside the outer one.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->ts_us, inner->ts_us);
  EXPECT_GE(outer->ts_us + outer->dur_us, inner->ts_us + inner->dur_us);
  EXPECT_EQ(inner->args_json, "{\"layer\":2,\"note\":\"deep\"}");
  recorder.clear();
}

TEST(Trace, ChromeTraceJsonShape) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(true);
  {
    RAP_TRACE_SPAN("export_me", {{"k", 3.5}});
  }
  setTracingEnabled(false);

  const std::string json = recorder.renderChromeTrace();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"export_me\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"k\":3.5}"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  recorder.clear();
}

TEST(Trace, NonFiniteArgsAreJsonNull) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(true);
  {
    RAP_TRACE_SPAN("odd", {{"nan", kNaN}, {"inf", kInf}, {"ninf", -kInf}});
  }
  setTracingEnabled(false);

  const svc::JsonValue chrome = parseJson(recorder.renderChromeTrace());
  const svc::JsonValue* events = chrome.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->array_value.size(), 1u);
  expectNullMembers(events->array_value[0].find("args"),
                    {"nan", "inf", "ninf"});

  const svc::JsonValue tracez = parseJson(renderTracez(recorder, 8));
  ASSERT_NE(tracez.find("events"), nullptr);
  ASSERT_EQ(tracez.find("events")->array_value.size(), 1u);
  expectNullMembers(tracez.find("events")->array_value[0].find("args"),
                    {"nan", "inf", "ninf"});
  recorder.clear();
}

TEST(Trace, FlowEventsRenderWithSharedIdAndEndBinding) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(true);
  {
    RAP_TRACE_SPAN("producer_side");
    traceFlow('s', "flow/x", 42, {{"epoch", 7}});
  }
  {
    RAP_TRACE_SPAN("consumer_side");
    traceFlow('f', "flow/x", 42);
  }
  setTracingEnabled(false);

  const std::string json = recorder.renderChromeTrace();
  // Both points share (name, id), which is what chains them into one
  // Perfetto arrow.
  EXPECT_NE(json.find("\"name\":\"flow/x\",\"cat\":\"rap\",\"ph\":\"s\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow/x\",\"cat\":\"rap\",\"ph\":\"f\""),
            std::string::npos);
  // The terminating point binds to its enclosing slice.
  const std::size_t f_pos = json.find("\"ph\":\"f\"");
  ASSERT_NE(f_pos, std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\"", f_pos), std::string::npos);
  // Flow points carry the id; spans do not.
  EXPECT_NE(json.find("\"id\":42"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"epoch\":7}"), std::string::npos);
  recorder.clear();
}

TEST(Trace, DisabledFlowRecordsNothing) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(false);
  traceFlow('s', "flow/none", 1);
  EXPECT_EQ(recorder.eventCount(), 0u);
}

TEST(Trace, SpansFromManyThreadsAllRecorded) {
  TraceRecorder& recorder = defaultTraceRecorder();
  recorder.clear();
  setTracingEnabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        RAP_TRACE_SPAN("worker_span", {{"i", i}});
      }
    });
  }
  for (auto& t : threads) t.join();
  setTracingEnabled(false);
  EXPECT_EQ(recorder.eventCount(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  recorder.clear();
}

// --------------------------------------------------------- structured log

class CaptureSink final : public util::LogSink {
 public:
  void write(const util::LogRecord& record) override {
    std::lock_guard<std::mutex> lock(mutex_);
    records.push_back(record);
  }
  std::mutex mutex_;
  std::vector<util::LogRecord> records;
};

TEST(StructuredLog, SinkReceivesMessageAndFields) {
  CaptureSink sink;
  util::setLogSink(&sink);
  RAP_LOG_KV(Info, {"layer", 3}, {"method", "rapminer"}) << "layer done";
  util::setLogSink(nullptr);

  ASSERT_EQ(sink.records.size(), 1u);
  const util::LogRecord& record = sink.records[0];
  EXPECT_EQ(record.level, util::LogLevel::kInfo);
  EXPECT_EQ(record.message, "layer done");
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0].key, "layer");
  EXPECT_EQ(std::get<std::int64_t>(record.fields[0].value), 3);
  EXPECT_EQ(record.fields[1].key, "method");
  EXPECT_EQ(std::get<std::string>(record.fields[1].value), "rapminer");
  EXPECT_STREQ(record.file, "obs_test.cpp");
}

TEST(StructuredLog, JsonLineFormat) {
  util::LogRecord record;
  record.level = util::LogLevel::kWarn;
  record.file = "monitor.cpp";
  record.line = 98;
  record.message = "alarm \"raised\"";
  record.fields.emplace_back("alarms", 3);
  record.fields.emplace_back("state", "raised");
  record.fields.emplace_back("drop", 0.25);

  const std::string line = JsonLineLogSink::formatRecord(record);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"src\":\"monitor.cpp:98\""), std::string::npos);
  EXPECT_NE(line.find("\"msg\":\"alarm \\\"raised\\\"\""), std::string::npos);
  EXPECT_NE(line.find("\"alarms\":3"), std::string::npos);
  EXPECT_NE(line.find("\"state\":\"raised\""), std::string::npos);
  EXPECT_NE(line.find("\"drop\":0.25"), std::string::npos);
}

TEST(StructuredLog, NonFiniteFieldsAreJsonNull) {
  util::LogRecord record;
  record.file = "monitor.cpp";
  record.fields.emplace_back("nan", kNaN);
  record.fields.emplace_back("inf", kInf);
  record.fields.emplace_back("ninf", -kInf);
  record.fields.emplace_back("drop", 0.25);

  const svc::JsonValue doc = parseJson(JsonLineLogSink::formatRecord(record));
  expectNullMembers(&doc, {"nan", "inf", "ninf"});
  ASSERT_NE(doc.find("drop"), nullptr);
  EXPECT_EQ(doc.find("drop")->number_value, 0.25);
}

TEST(StructuredLog, BelowLevelStatementsNeverReachSink) {
  CaptureSink sink;
  util::setLogSink(&sink);
  const util::LogLevel before = util::logLevel();
  util::setLogLevel(util::LogLevel::kWarn);
  RAP_LOG(Info) << "filtered out";
  RAP_LOG_KV(Debug, {"x", 1}) << "also filtered";
  util::setLogLevel(before);
  util::setLogSink(nullptr);
  EXPECT_TRUE(sink.records.empty());
}

}  // namespace
}  // namespace rap::obs
