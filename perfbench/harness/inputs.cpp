#include "inputs.h"

#include <algorithm>
#include <thread>

#include "core/classification_power.h"
#include "detect/detector.h"
#include "gen/rapmd.h"
#include "io/csv.h"
#include "io/json.h"
#include "svc/snapshot.h"
#include "util/logging.h"
#include "util/strings.h"

namespace perfbench {

using rap::dataset::AttrId;
using rap::dataset::LeafTable;
using rap::dataset::Schema;

rap::core::RapMinerConfig Knobs::minerConfig() const {
  rap::core::RapMinerConfig config;
  config.cp.t_cp = t_cp;
  config.search.t_conf = t_conf;
  config.search.deadline_seconds = deadline_seconds;
  return config;
}

std::string bodyVariant(const Snapshot& snapshot, int variant) {
  std::string body = snapshot.csv;
  body.insert(snapshot.variant_pos, static_cast<std::size_t>(variant), '0');
  return body;
}

std::vector<LeafTable> makeCaseTables(const Schema& schema, std::uint64_t seed,
                                      std::int32_t first, std::int32_t count,
                                      double label_noise) {
  rap::gen::RapmdConfig config;
  config.num_cases = first + count;
  config.label_noise = label_noise;
  rap::gen::RapmdGenerator generator(schema, config, seed);
  std::vector<LeafTable> tables;
  tables.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = first; i < first + count; ++i) {
    tables.push_back(std::move(generator.generateCase(i).table));
  }
  return tables;
}

Snapshot makeSnapshot(const LeafTable& table, bool labeled) {
  const Schema& schema = table.schema();
  std::vector<rap::io::CsvRow> rows;
  rows.reserve(table.size() + 1);
  rap::io::CsvRow header;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    header.push_back(schema.attribute(a).name());
  }
  header.emplace_back("real");
  header.emplace_back("predict");
  if (labeled) header.emplace_back("label");
  rows.push_back(std::move(header));
  for (const auto& row : table.rows()) {
    rap::io::CsvRow out;
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      out.push_back(schema.attribute(a).elementName(row.ac.slot(a)));
    }
    out.push_back(rap::util::strFormat("%.6g", row.v));
    out.push_back(rap::util::strFormat("%.6g", row.f));
    if (labeled) out.push_back(row.anomalous ? "1" : "0");
    rows.push_back(std::move(out));
  }
  Snapshot snapshot;
  snapshot.csv = rap::io::writeCsv(rows);
  // Element names carry no '.', so the first '.' after the header sits
  // inside a KPI value; its fraction digits end where the zeros go.
  const std::size_t data = snapshot.csv.find('\n') + 1;
  std::size_t pos = snapshot.csv.find('.', data);
  RAP_CHECK(pos != std::string::npos);
  ++pos;
  while (pos < snapshot.csv.size() && snapshot.csv[pos] >= '0' &&
         snapshot.csv[pos] <= '9') {
    ++pos;
  }
  snapshot.variant_pos = pos;
  return snapshot;
}

std::string referenceDoc(const Schema& schema, const std::string& body,
                         const Knobs& knobs) {
  auto parsed = rap::svc::parseCsvSnapshot(schema, body);
  RAP_CHECK_MSG(parsed.isOk(), parsed.status().toString());
  LeafTable table = std::move(parsed.value());
  if (table.anomalousCount() == 0) {
    rap::detect::RelativeDeviationDetector(knobs.detect_threshold).run(table);
  }
  const rap::core::RapMiner miner(knobs.minerConfig());
  return canonicalDoc(
      rap::io::resultToJson(schema, miner.localize(table, knobs.k)));
}

rap::core::LocalizationResult stagedLocalize(
    const LeafTable& table, const rap::core::RapMinerConfig& config,
    std::int32_t k, rap::core::SearchWorkspace& workspace, SpanLog* log,
    std::int64_t op) {
  rap::core::LocalizationResult result;
  ScopedSpan localize(log, "core.localize", op);
  {
    ScopedSpan span(log, "core.cp", op);
    result.stats.kept_attributes = rap::core::deleteRedundantAttributes(
        table, config.cp.t_cp, &result.stats.classification_power);
  }
  result.stats.attributes_deleted =
      table.schema().attributeCount() -
      static_cast<std::int32_t>(result.stats.kept_attributes.size());
  {
    ScopedSpan span(log, "core.search", op);
    result.patterns = rap::core::acGuidedSearch(
        table, result.stats.kept_attributes, config.search, workspace,
        result.stats);
  }
  {
    ScopedSpan span(log, "core.rank", op);
    for (auto& pattern : result.patterns) {
      pattern.score = rap::core::rapScore(pattern.confidence, pattern.layer);
    }
    std::stable_sort(result.patterns.begin(), result.patterns.end(),
                     [](const auto& a, const auto& b) { return a.score > b.score; });
    if (k > 0 && static_cast<std::int32_t>(result.patterns.size()) > k) {
      result.patterns.resize(static_cast<std::size_t>(k));
    }
  }
  result.degraded = !result.stats.degraded_reason.empty();
  return result;
}

void computeReferences(const Schema& schema, std::vector<Snapshot>& snapshots,
                       const Knobs& knobs, std::size_t threads) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < std::max<std::size_t>(threads, 1); ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next++; i < snapshots.size(); i = next++) {
        snapshots[i].reference = referenceDoc(schema, snapshots[i].csv, knobs);
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

LeafTable windowTable(const Schema& schema,
                      const std::vector<rap::stream::StreamEvent>& events) {
  std::vector<rap::dataset::LeafRow> rows;
  rows.reserve(events.size());
  for (const auto& event : events) {
    rows.push_back({event.leaf, event.v, event.f, false});
  }
  std::sort(rows.begin(), rows.end(),
            [](const rap::dataset::LeafRow& a, const rap::dataset::LeafRow& b) {
              if (a.ac.slots() != b.ac.slots()) return a.ac.slots() < b.ac.slots();
              if (a.v != b.v) return a.v < b.v;
              return a.f < b.f;
            });
  LeafTable table(schema);
  table.reserve(rows.size());
  for (auto& row : rows) table.addRow(std::move(row));
  return table;
}

std::string streamReferenceDoc(
    const Schema& schema, const std::vector<rap::stream::StreamEvent>& events,
    const rap::core::RapMinerConfig& miner, std::int32_t top_k,
    double threshold) {
  LeafTable table = windowTable(schema, events);
  rap::detect::RelativeDeviationDetector(threshold).run(table);
  const rap::core::RapMiner reference(miner);
  return canonicalDoc(
      rap::io::resultToJson(schema, reference.localize(table, top_k)));
}

}  // namespace perfbench
