// Localize root anomaly patterns from CSV files — the deployment-shaped
// entry point.  Reads a schema sidecar and a leaf KPI table (the Squeeze
// repository's  attr...,real,predict[,label]  layout), optionally runs
// leaf-level detection when the label column is absent, and prints the
// top-k RAPs.
//
//   $ ./csv_localize --schema schema.csv --data ts.csv [--k 5]
//                    [--detect-threshold 0.095] [--t-cp 0.001] [--t-conf 0.8]
//                    [--threads 1]   (search threads; 0 = all cores)
//
// Run without flags to see a self-contained demo: the binary writes a
// sample schema/data pair to /tmp, then localizes it.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "rap.h"

#include "io/dataset_io.h"
#include "io/json.h"
#include "util/flags.h"

using namespace rap;

namespace {

/// Writes a small demo dataset and returns its paths.
std::pair<std::string, std::string> writeDemoFiles() {
  const dataset::Schema schema = dataset::Schema::tiny();
  const std::string schema_path = "/tmp/rapminer_demo_schema.csv";
  const std::string data_path = "/tmp/rapminer_demo_data.csv";
  RAP_CHECK(io::saveSchema(schema, schema_path).isOk());

  dataset::LeafTable table(schema);
  const auto broken =
      dataset::AttributeCombination::parse(schema, "(*, b2, *, *)").value();
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const double f = 50.0 + static_cast<double>(i % 7) * 10.0;
    const double v = broken.matchesLeaf(leaf) ? f * 0.3 : f;
    table.addRow(leaf, v, f, /*anomalous=*/false);  // no label: detect below
  }
  RAP_CHECK(io::saveLeafTable(table, data_path).isOk());
  return {schema_path, data_path};
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.addString("schema", "", "schema sidecar CSV (name,elem1,elem2,...)");
  flags.addString("data", "", "leaf KPI CSV (attr...,real,predict[,label])");
  flags.addInt("k", 5, "patterns to report");
  flags.addDouble("detect-threshold", 0.095,
                  "relative-deviation detection threshold (used when the "
                  "table carries no labels)");
  flags.addDouble("t-cp", 0.0005, "RAPMiner classification-power threshold");
  flags.addDouble("t-conf", 0.8, "RAPMiner anomaly-confidence threshold");
  flags.addInt("threads", 1,
               "search fan-out concurrency (1 = serial, 0 = all cores)");
  flags.addBool("json", false, "emit the result as a JSON document");
  if (auto status = flags.parse(argc, argv); !status.isOk()) {
    std::fprintf(stderr, "%s\n%s", status.toString().c_str(),
                 flags.helpText(argv[0]).c_str());
    return 2;
  }
  const std::int64_t threads_flag = flags.getInt("threads");
  if (threads_flag < 0) {
    std::fprintf(stderr, "config: threads must be >= 0 (0 = all cores), "
                         "got %lld\n", static_cast<long long>(threads_flag));
    return 2;
  }
  const std::int64_t threads =
      threads_flag > 0
          ? threads_flag
          : std::max<std::int64_t>(1, std::thread::hardware_concurrency());

  std::string schema_path = flags.getString("schema");
  std::string data_path = flags.getString("data");
  if (schema_path.empty() || data_path.empty()) {
    std::printf("no --schema/--data given; running the built-in demo\n");
    std::tie(schema_path, data_path) = writeDemoFiles();
  }

  auto schema = io::loadSchema(schema_path);
  if (!schema) {
    std::fprintf(stderr, "schema: %s\n", schema.status().toString().c_str());
    return 1;
  }
  auto table = io::loadLeafTable(schema.value(), data_path);
  if (!table) {
    std::fprintf(stderr, "data: %s\n", table.status().toString().c_str());
    return 1;
  }

  // Detect when the file carried no verdicts.
  if (table->anomalousCount() == 0) {
    const detect::RelativeDeviationDetector detector(
        flags.getDouble("detect-threshold"));
    const auto flagged = detector.run(table.value());
    std::printf("detector flagged %u of %zu leaves\n", flagged, table->size());
  }

  // Builder: user-supplied thresholds get a Status instead of an abort.
  const auto miner = core::RapMiner::Builder()
                         .tCp(flags.getDouble("t-cp"))
                         .tConf(flags.getDouble("t-conf"))
                         .build();
  if (!miner.isOk()) {
    std::fprintf(stderr, "config: %s\n", miner.status().toString().c_str());
    return 2;
  }
  // The search fans out on a pool the caller owns: threads - 1 workers
  // plus this thread.  One thread runs the serial search.
  const auto pool = threads > 1 ? std::make_unique<util::ThreadPool>(
                                      static_cast<std::size_t>(threads - 1))
                                : nullptr;
  const auto result =
      miner->localize(table.value(),
                      static_cast<std::int32_t>(flags.getInt("k")), pool.get());

  if (flags.getBool("json")) {
    std::printf("%s\n", io::resultToJson(schema.value(), result).c_str());
    return 0;
  }
  if (result.patterns.empty()) {
    std::printf("no root anomaly pattern found\n");
    return 0;
  }
  for (const auto& pattern : result.patterns) {
    std::printf("RAP %s  confidence=%.3f layer=%d score=%.3f\n",
                pattern.ac.toString(schema.value()).c_str(),
                pattern.confidence, pattern.layer, pattern.score);
  }
  return 0;
}
