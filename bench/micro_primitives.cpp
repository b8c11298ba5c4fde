// Micro-benchmarks of the primitives the localization algorithms are
// built on: group-by aggregation, classification power, the AC search,
// FP-growth and the density clustering.
//
// Besides the google-benchmark suite, the binary has a second mode:
//
//   micro_primitives --assert-zero-alloc
//
// runs the warmed-up workspace group-by over every cuboid of a sparse
// table with the allocation probe armed and exits non-zero if the
// steady state performed a single heap allocation — the CI bench-smoke
// job's enforcement of the allocation-free hot-path contract
// (docs/algorithms.md, "Workspace reuse").  It then runs a warm serial
// acGuidedSearch on a retained workspace and fails if it allocates more
// than its result (the candidate vector and one combination per
// candidate): nothing per group or per cuboid.  A warm search whose
// layers fan out on a 2-worker pool must allocate the same count beyond
// its result at 1k and at 9k rows, at most one fan-out block per layer.
// The same mode then decodes a ~9k-row cdn CSV snapshot and a labeled
// 8-attribute one (the svc_incident and svc_deep shapes) and fails if
// either warm decode makes more than 64 heap allocations: the table's
// columns are reserved up front, and nothing is allocated per row or
// per field (docs/service.md, "Snapshot decoding").  Last, it drives a
// warm window through the stream sealer's data path (4 sorted shard
// fragments merged by the WindowAssembler, popped, its packed leaf
// keys appended to a table) at 1k and at 9k rows and fails unless both make the same
// number of heap allocations: nothing per row (docs/streaming.md).
// The probe's replacement operator new/delete are compiled into this
// binary only (see src/util/alloc_probe.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "alarm/monitor.h"
#include "baselines/fp_rap.h"
#include "forecast/forecaster.h"
#include "io/csv.h"
#include "io/json.h"
#include "core/classification_power.h"
#include "core/rapminer.h"
#include "core/search.h"
#include "dataset/cuboid.h"
#include "gen/rapmd.h"
#include "mining/fpgrowth.h"
#include "obs/metrics.h"
#include "stats/histogram.h"
#include "stream/window.h"
#include "svc/snapshot.h"
#include "util/alloc_probe.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace {

using namespace rap;

const gen::Case& rapmdCase() {
  static const gen::Case kCase = [] {
    gen::RapmdConfig config;
    config.num_cases = 1;
    gen::RapmdGenerator generator(dataset::Schema::cdn(), config, 1234);
    return generator.generateCase(0);
  }();
  return kCase;
}

void BM_GroupByFullCuboid(benchmark::State& state) {
  const auto& table = rapmdCase().table;
  const auto mask = dataset::allAttributesMask(table.schema());
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.groupBy(mask));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_GroupByFullCuboid);

void BM_GroupByLayer1(benchmark::State& state) {
  const auto& table = rapmdCase().table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.groupBy(1u));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_GroupByLayer1);

/// Sparse workload for the workspace group-by benches: the full cuboid
/// has 64*64*16 = 65536 cells but only 512 distinct leaves carry rows
/// (128x cells-to-groups) — the regime where the seed's dense full
/// sweep spends almost all its time scanning empty cells and the
/// touched-key pass wins.
const dataset::LeafTable& sparseTable() {
  static const dataset::LeafTable kTable = [] {
    const dataset::Schema schema = dataset::Schema::synthetic({64, 64, 16});
    util::Rng rng(4242);
    std::set<std::uint64_t> leaves;
    while (leaves.size() < 512) {
      leaves.insert(static_cast<std::uint64_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(schema.leafCount()) - 1)));
    }
    const std::vector<std::uint64_t> picked(leaves.begin(), leaves.end());
    dataset::LeafTable table(schema);
    for (int r = 0; r < 2048; ++r) {
      const bool anomalous = r % 5 == 0;
      table.addRow(
          dataset::leafFromIndex(schema, picked[static_cast<std::size_t>(r) %
                                               picked.size()]),
          anomalous ? 10.0 : 100.0, 100.0, anomalous);
    }
    return table;
  }();
  return kTable;
}

void BM_GroupByIntoWorkspace(benchmark::State& state) {
  // The allocation-free path: touched-key tracking + sort, resetting
  // only the cells this cuboid dirtied, into retained buffers, emitting
  // keyed groups (nothing decoded).  O(rows + groups log groups) per
  // call, zero steady-state allocation.
  const auto& table = sparseTable();
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> out;
  const auto mask = dataset::allAttributesMask(table.schema());
  table.groupByInto(mask, scratch, out);  // size the buffers once
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.groupByInto(mask, scratch, out));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_GroupByIntoWorkspace);

void BM_GroupByIntoWorkspaceAllCuboids(benchmark::State& state) {
  // One full Algorithm-2-shaped pass: every cuboid of the lattice
  // through one retained workspace, the reuse pattern the search's
  // layer loop actually drives (alternating masks is what stresses the
  // touched-cell reset; the dense low layers take the in-order cell
  // walk, the sparse high ones the sorted touched keys).
  const auto& table = sparseTable();
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> out;
  const auto cuboids = dataset::allCuboidsByLayer(
      dataset::allAttributesMask(table.schema()));
  for (const auto mask : cuboids) table.groupByInto(mask, scratch, out);
  for (auto _ : state) {
    std::size_t groups = 0;
    for (const auto mask : cuboids) {
      groups += table.groupByInto(mask, scratch, out);
    }
    benchmark::DoNotOptimize(groups);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(table.size() * cuboids.size()));
}
BENCHMARK(BM_GroupByIntoWorkspaceAllCuboids);

void BM_ClassificationPower(benchmark::State& state) {
  const auto& table = rapmdCase().table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classificationPowers(table));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(table.size()));
}
BENCHMARK(BM_ClassificationPower);

void BM_RapMinerLocalize(benchmark::State& state) {
  const auto& table = rapmdCase().table;
  const core::RapMiner miner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(miner.localize(table, 5));
  }
}
BENCHMARK(BM_RapMinerLocalize);

void BM_FpGrowth(benchmark::State& state) {
  // Transactions from the case's anomalous leaves.
  const auto& table = rapmdCase().table;
  std::vector<mining::Transaction> txns;
  for (const auto& row : table.rows()) {
    if (!row.anomalous) continue;
    mining::Transaction txn;
    for (dataset::AttrId a = 0; a < table.schema().attributeCount(); ++a) {
      txn.push_back(a * 64 + row.ac.slot(a));
    }
    txns.push_back(std::move(txn));
  }
  mining::FpGrowthOptions options;
  options.min_support =
      std::max<std::uint64_t>(2, txns.size() / 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mining::mineFrequentItemsets(txns, options));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(txns.size()));
}
BENCHMARK(BM_FpGrowth);

void BM_DensityClustering(benchmark::State& state) {
  util::Rng rng(99);
  std::vector<double> values;
  values.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    values.push_back(rng.bernoulli(0.5) ? rng.gaussian(0.3, 0.05)
                                        : rng.gaussian(1.2, 0.08));
  }
  for (auto _ : state) {
    stats::Histogram hist(-2.0, 2.0, 80);
    hist.addAll(values);
    benchmark::DoNotOptimize(stats::densityClusters(hist, 2, 0.6));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_DensityClustering);

void BM_AttributeCombinationOps(benchmark::State& state) {
  const auto schema = dataset::Schema::cdn();
  const auto ancestor =
      dataset::AttributeCombination::parse(schema, "(L1, *, *, Site1)")
          .value();
  const auto leaf = dataset::leafFromIndex(schema, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ancestor.matchesLeaf(leaf));
    benchmark::DoNotOptimize(ancestor.isAncestorOf(leaf));
    benchmark::DoNotOptimize(ancestor.cuboidMask());
  }
}
BENCHMARK(BM_AttributeCombinationOps);

void BM_HoltWintersForecast(benchmark::State& state) {
  std::vector<double> history;
  for (int t = 0; t < 1440 * 3; ++t) {
    history.push_back(100.0 + 30.0 * std::sin(t * 0.004));
  }
  const forecast::HoltWintersForecaster forecaster(1440);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forecaster.forecastNext(history));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(history.size()));
}
BENCHMARK(BM_HoltWintersForecast);

void BM_AlarmObserve(benchmark::State& state) {
  alarm::MonitorConfig config;
  config.season_length = 1440;
  alarm::KpiMonitor monitor(config);
  // Pre-fill two seasons.
  for (int t = 0; t < 1440 * 2; ++t) {
    monitor.observe(100.0 + 30.0 * std::sin(t * 0.004));
  }
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(monitor.observe(100.0 + 30.0 * std::sin(t)));
    t += 0.004;
  }
}
BENCHMARK(BM_AlarmObserve);

// The obs hot path: instrumentation sites resolve their series once,
// then the per-event cost is a gate load plus one relaxed atomic.
// These pin that cost down so "near-free when disabled" stays a
// measured claim, not a slogan.
void BM_MetricsGateDisabled(benchmark::State& state) {
  obs::setMetricsEnabled(false);
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("bench_gate_total");
  for (auto _ : state) {
    if (obs::metricsEnabled()) counter.increment();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsGateDisabled);

void BM_MetricsCounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  auto& counter = registry.counter("bench_counter_total");
  for (auto _ : state) {
    counter.increment();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsCounterIncrement);

void BM_MetricsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  auto& hist = registry.histogram("bench_latency_seconds",
                                  obs::exponentialBuckets(1e-4, 4.0, 10));
  double v = 1e-4;
  for (auto _ : state) {
    hist.observe(v);
    v = v > 1.0 ? 1e-4 : v * 1.7;  // sweep the bucket scan's full range
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricsHistogramObserve);

void BM_JsonResultSerialization(benchmark::State& state) {
  const auto& c = rapmdCase();
  const auto result = core::RapMiner().localize(c.table, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::resultToJson(c.table.schema(), result));
  }
}
BENCHMARK(BM_JsonResultSerialization);

/// The svc_deep shape: a rapmd case over the 8-attribute synthetic
/// schema (8,640 leaves), labels with 2% noise.
const gen::Case& deepCase() {
  static const gen::Case kCase = [] {
    gen::RapmdConfig config;
    config.num_cases = 1;
    config.label_noise = 0.02;
    gen::RapmdGenerator generator(
        dataset::Schema::synthetic({5, 4, 4, 3, 3, 3, 2, 2}), config, 1234);
    return generator.generateCase(0);
  }();
  return kCase;
}

/// `table` as an `attr...,real,predict[,label]` CSV request body, KPIs
/// at %.6g — the shape perfbench posts.
std::string csvBody(const dataset::LeafTable& table, bool labeled) {
  const auto& schema = table.schema();
  std::vector<io::CsvRow> rows;
  io::CsvRow header;
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    header.push_back(schema.attribute(a).name());
  }
  header.emplace_back("real");
  header.emplace_back("predict");
  if (labeled) header.emplace_back("label");
  rows.push_back(std::move(header));
  for (const auto& row : table.rows()) {
    io::CsvRow out;
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      out.push_back(schema.attribute(a).elementName(row.ac.slot(a)));
    }
    out.push_back(util::strFormat("%.6g", row.v));
    out.push_back(util::strFormat("%.6g", row.f));
    if (labeled) out.push_back(row.anomalous ? "1" : "0");
    rows.push_back(std::move(out));
  }
  return io::writeCsv(rows);
}

/// The rapmd case, unlabeled: the shape of the svc_incident snapshots.
const std::string& snapshotBody() {
  static const std::string kBody = csvBody(rapmdCase().table, false);
  return kBody;
}

/// The deep case, labeled: the shape of the svc_deep snapshots.
const std::string& deepSnapshotBody() {
  static const std::string kBody = csvBody(deepCase().table, true);
  return kBody;
}

void decodeBenchmark(benchmark::State& state, const gen::Case& c,
                     const std::string& body) {
  const auto& schema = c.table.schema();
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc::parseCsvSnapshot(schema, body));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.table.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
}

void BM_DecodeCsvSnapshot(benchmark::State& state) {
  decodeBenchmark(state, rapmdCase(), snapshotBody());
}
BENCHMARK(BM_DecodeCsvSnapshot);

void BM_DecodeCsvSnapshotLabeled8(benchmark::State& state) {
  decodeBenchmark(state, deepCase(), deepSnapshotBody());
}
BENCHMARK(BM_DecodeCsvSnapshotLabeled8);

/// The cache-hit fast path's one read of the body: svc::contentHash
/// over the svc_incident snapshot.
void BM_ContentHash(benchmark::State& state) {
  const std::string& body = snapshotBody();
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc::contentHash(body));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
}
BENCHMARK(BM_ContentHash);

/// The KPI fields (`real`, `predict`) of the svc_incident snapshot body,
/// as views into it: what the decoder hands util::parseDouble.
const std::vector<std::string_view>& snapshotKpiFields() {
  static const std::vector<std::string_view> kFields = [] {
    std::vector<std::string_view> fields;
    const std::string_view body = snapshotBody();
    std::size_t line = body.find('\n') + 1;  // past the header
    while (line < body.size()) {
      std::size_t end = body.find('\n', line);
      if (end == std::string_view::npos) end = body.size();
      const std::string_view row = body.substr(line, end - line);
      const std::size_t predict = row.rfind(',');
      const std::size_t real = row.rfind(',', predict - 1);
      fields.push_back(row.substr(real + 1, predict - real - 1));
      fields.push_back(row.substr(predict + 1));
      line = end + 1;
    }
    return fields;
  }();
  return kFields;
}

void BM_ParseKpiText(benchmark::State& state) {
  const auto& fields = snapshotKpiFields();
  for (auto _ : state) {
    double sum = 0.0;
    for (const std::string_view field : fields) {
      sum += util::parseDouble(field).value();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fields.size()));
}
BENCHMARK(BM_ParseKpiText);

void BM_SealedTable(benchmark::State& state) {
  // The sealer's table build on a ~9k-event cdn window: the rapmd case's
  // rows as packed leaf keys in canonical order, appended key by key.
  const auto& table = rapmdCase().table;
  std::vector<stream::LeafEvent> events;
  for (dataset::RowId r = 0; r < table.size(); ++r) {
    events.push_back({table.key(r), 0, table.v(r), table.f(r)});
  }
  std::sort(events.begin(), events.end(), stream::canonicalLess);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stream::sealedTable(table.schema(), events));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_SealedTable);

/// The decode half of --assert-zero-alloc: a warm single-pass decode
/// may make a fixed number of allocations (the table's reserved
/// columns, the schema and error plumbing), never per row, per field or
/// for a materialized document.  Checked on both snapshot shapes.
int assertDecodeAllocBudget() {
  constexpr std::uint64_t budget = 64;
  const struct {
    const char* name;
    const gen::Case& c;
    const std::string& body;
  } shapes[] = {{"cdn", rapmdCase(), snapshotBody()},
                {"labeled 8-attribute", deepCase(), deepSnapshotBody()}};
  for (const auto& shape : shapes) {
    const auto& schema = shape.c.table.schema();
    if (!svc::parseCsvSnapshot(schema, shape.body).isOk()) {  // warm-up
      std::fprintf(stderr, "FAIL: the %s snapshot body does not decode\n",
                   shape.name);
      return 1;
    }
    util::allocProbeArm();
    const auto table = svc::parseCsvSnapshot(schema, shape.body);
    const std::uint64_t allocs = util::allocProbeDisarm();
    const std::uint64_t rows = table.isOk() ? table->size() : 0;
    std::printf("decode alloc check (%s): %llu heap allocations decoding "
                "%llu rows (%zu bytes), budget %llu\n",
                shape.name, static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(rows), shape.body.size(),
                static_cast<unsigned long long>(budget));
    if (!table.isOk() || allocs > budget) {
      std::fprintf(stderr,
                   "FAIL: %s snapshot decoding exceeded its allocation "
                   "budget\n",
                   shape.name);
      return 1;
    }
  }
  std::printf("OK: snapshot decoding is within 64 allocations\n");
  return 0;
}

/// --assert-zero-alloc: drive the warmed-up workspace group-by over
/// every cuboid with the allocation probe armed.  Exit 0 iff the steady
/// state allocated nothing.
int assertZeroAlloc() {
  const auto& table = sparseTable();
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> out;
  const auto cuboids = dataset::allCuboidsByLayer(
      dataset::allAttributesMask(table.schema()));
  // Warm-up: two full passes size every buffer for its worst cuboid.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto mask : cuboids) table.groupByInto(mask, scratch, out);
  }
  util::allocProbeArm();
  std::uint64_t groups = 0;
  constexpr int kPasses = 8;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto mask : cuboids) {
      groups += table.groupByInto(mask, scratch, out);
    }
  }
  const std::uint64_t allocs = util::allocProbeDisarm();
  std::printf(
      "zero-alloc check: %llu heap allocations across %d steady-state "
      "passes x %zu cuboids (%llu groups aggregated)\n",
      static_cast<unsigned long long>(allocs), kPasses, cuboids.size(),
      static_cast<unsigned long long>(groups));
  if (allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: the steady-state group-by hot path allocated\n");
    return 1;
  }
  std::printf("OK: steady-state group-by is allocation-free\n");
  return 0;
}

/// The search half of --assert-zero-alloc: a warm serial acGuidedSearch
/// on a retained workspace (and a reused SearchStats, so its per-layer
/// vector keeps its capacity) may allocate only what it returns — the
/// candidate vector and one combination per candidate — never per group
/// or per cuboid.  Run with early stop on and off over every attribute
/// of an 8-attribute RAPMD case, so every layer is walked.
int assertSearchAllocBudget() {
  gen::RapmdConfig config;
  config.num_cases = 1;
  config.label_noise = 0.02;
  gen::RapmdGenerator generator(
      dataset::Schema::synthetic({5, 4, 4, 3, 3, 3, 2, 2}), config, 20220627);
  const dataset::LeafTable table = generator.generateCase(0).table;
  std::vector<dataset::AttrId> kept(
      static_cast<std::size_t>(table.schema().attributeCount()));
  for (std::size_t a = 0; a < kept.size(); ++a) {
    kept[a] = static_cast<dataset::AttrId>(a);
  }
  core::SearchWorkspace workspace;
  core::SearchStats stats;
  int failures = 0;
  for (const bool early_stop : {true, false}) {
    core::SearchConfig search;
    search.early_stop = early_stop;
    for (int pass = 0; pass < 2; ++pass) {  // warm-up
      stats.layers.clear();
      core::acGuidedSearch(table, kept, search, workspace, stats);
    }
    stats.layers.clear();
    util::allocProbeArm();
    const auto candidates =
        core::acGuidedSearch(table, kept, search, workspace, stats);
    const std::uint64_t allocs = util::allocProbeDisarm();
    const std::uint64_t budget =
        candidates.empty() ? 0 : 1 + candidates.size();
    std::printf(
        "search alloc check (early_stop=%d): %llu heap allocations for %zu "
        "candidates over %zu layers, budget %llu\n",
        early_stop ? 1 : 0, static_cast<unsigned long long>(allocs),
        candidates.size(), stats.layers.size(),
        static_cast<unsigned long long>(budget));
    if (allocs > budget) {
      std::fprintf(stderr,
                   "FAIL: the warm search allocated beyond its result\n");
      ++failures;
    }
  }
  if (failures != 0) return 1;
  std::printf("OK: a warm search allocates only its result\n");
  return 0;
}

/// What one warm pooled search of a `rows`-row table allocates beyond
/// its result, and the number of its layers that can fan out.
struct PooledSearchAllocs {
  std::uint64_t beyond_result = 0;
  std::uint64_t fan_out_layers = 0;
};

/// A warm acGuidedSearch on a 2-worker pool over `rows` leaves of an
/// 8-attribute schema (one anomalous pattern at layer 2), early stop off
/// so every layer is walked.  Which thread judges which cuboid varies
/// from run to run, so a helper's buffers may reach their high-water
/// mark late; the count is the least over several warm runs, which
/// still carries every allocation made per row, group or cuboid.
PooledSearchAllocs pooledSearchAllocs(std::size_t rows,
                                      util::ThreadPool& pool,
                                      core::SearchWorkspace& workspace) {
  const dataset::Schema schema =
      dataset::Schema::synthetic({5, 4, 4, 3, 3, 3, 2, 2});
  dataset::LeafTable table(schema);
  for (std::size_t i = 0; i < rows; ++i) {
    const auto leaf = dataset::leafFromIndex(
        schema, (static_cast<std::uint64_t>(i) * 7919) % schema.leafCount());
    const bool anomalous = leaf.slot(0) == 0 && leaf.slot(1) == 1;
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }
  std::vector<dataset::AttrId> kept(
      static_cast<std::size_t>(schema.attributeCount()));
  for (std::size_t a = 0; a < kept.size(); ++a) {
    kept[a] = static_cast<dataset::AttrId>(a);
  }
  core::SearchConfig search;
  search.early_stop = false;
  core::SearchStats stats;
  PooledSearchAllocs out;
  out.beyond_result = UINT64_MAX;
  for (int run = 0; run < 8; ++run) {
    stats.layers.clear();
    util::allocProbeArm();
    const auto candidates =
        core::acGuidedSearch(table, kept, search, workspace, stats, &pool);
    const std::uint64_t allocs = util::allocProbeDisarm();
    const std::uint64_t result = candidates.empty() ? 0 : 1 + candidates.size();
    if (run >= 2) {  // runs 0 and 1 warm up
      out.beyond_result = std::min(out.beyond_result, allocs - result);
    }
  }
  for (const auto& layer : stats.layers) {
    if (layer.cuboids_visited > 1) out.fan_out_layers += 1;
  }
  return out;
}

/// The pooled half of --assert-zero-alloc: a warm search whose layers
/// fan out on a 2-worker pool allocates, beyond its result, the same
/// count at 1k and at 9k rows and at most one fan-out block per layer —
/// nothing per cuboid, group or row.
int assertPooledSearchAllocs() {
  util::ThreadPool pool(2);
  core::SearchWorkspace workspace;
  pooledSearchAllocs(9000, pool, workspace);  // size for the larger table
  const PooledSearchAllocs small = pooledSearchAllocs(1000, pool, workspace);
  const PooledSearchAllocs large = pooledSearchAllocs(9000, pool, workspace);
  std::printf("pooled search alloc check: %llu heap allocations beyond the "
              "result at 1000 rows, %llu at 9000 rows (2-worker pool), "
              "budget %llu (one per layer of more than one cuboid)\n",
              static_cast<unsigned long long>(small.beyond_result),
              static_cast<unsigned long long>(large.beyond_result),
              static_cast<unsigned long long>(large.fan_out_layers));
  if (small.beyond_result != large.beyond_result ||
      large.beyond_result > large.fan_out_layers) {
    std::fprintf(stderr,
                 "FAIL: the pooled search allocates beyond its per-layer "
                 "fan-out bookkeeping\n");
    return 1;
  }
  std::printf("OK: a warm pooled search allocates only per layer\n");
  return 0;
}

/// Heap allocations of one warm window of `rows` cdn leaves through the
/// sealer's data path: 4 sorted fragments contributed, the window
/// popped, its table filled.  The fragments are copied before the probe
/// is armed, as shards hand theirs over already built.
std::uint64_t windowAssemblyAllocs(std::size_t rows) {
  const dataset::Schema schema = dataset::Schema::cdn();
  constexpr std::int32_t kShards = 4;
  std::vector<std::vector<stream::LeafEvent>> fragments(kShards);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t leaf = schema.pack(
        dataset::leafFromIndex(schema, (i * 7919) % schema.leafCount())
            .slots());
    fragments[i % kShards].push_back(
        {leaf, 0, static_cast<double>(i % 13), static_cast<double>(i % 7)});
  }
  for (auto& fragment : fragments) {
    std::sort(fragment.begin(), fragment.end(), stream::canonicalLess);
  }
  stream::WindowAssembler assembler(kShards, /*window_width=*/60);
  std::uint64_t allocs = 0;
  for (std::int64_t epoch = 0; epoch < 2; ++epoch) {  // epoch 0 warms up
    auto copies = fragments;
    if (epoch == 1) util::allocProbeArm();
    for (std::int32_t shard = 0; shard < kShards; ++shard) {
      assembler.contribute(shard, epoch,
                           std::move(copies[static_cast<std::size_t>(shard)]));
      assembler.sealShardUpTo(shard, epoch);
    }
    auto window = assembler.popReady();
    const auto table = stream::sealedTable(schema, window->rows);
    benchmark::DoNotOptimize(table.size());
    if (epoch == 1) allocs = util::allocProbeDisarm();
  }
  return allocs;
}

/// The window-assembly half of --assert-zero-alloc: the same allocation
/// count at 1k and at 9k rows, so nothing is allocated per row.
int assertWindowAssemblyAllocs() {
  const std::uint64_t small = windowAssemblyAllocs(1000);
  const std::uint64_t large = windowAssemblyAllocs(9000);
  std::printf("window assembly alloc check: %llu heap allocations at 1000 "
              "rows, %llu at 9000 rows (4 fragments -> merge -> table)\n",
              static_cast<unsigned long long>(small),
              static_cast<unsigned long long>(large));
  if (small != large) {
    std::fprintf(stderr, "FAIL: window assembly allocates per row\n");
    return 1;
  }
  std::printf("OK: window assembly allocates nothing per row\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  bool assert_zero_alloc = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--assert-zero-alloc") == 0) {
      assert_zero_alloc = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (assert_zero_alloc) {
    const int groupby = assertZeroAlloc();
    const int search = assertSearchAllocBudget();
    const int pooled = assertPooledSearchAllocs();
    const int decode = assertDecodeAllocBudget();
    const int window = assertWindowAssemblyAllocs();
    for (const int code : {groupby, search, pooled, decode, window}) {
      if (code != 0) return code;
    }
    return 0;
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
