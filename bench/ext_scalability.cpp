// Extension study of the paper's §V-F claim: "the efficiency of RAPMiner
// is not related to the total number of attributes, but the number of
// attributes contained in the RAPs, because the redundant attributes can
// be deleted by Algorithm 1".
//
// We grow the schema from 2 to 6 attributes (adding ISP and Protocol
// dimensions to the Table I CDN) while keeping the injected RAP
// dimension fixed at <= 2, and measure RAPMiner with and without the
// deletion stage.  With deletion, cost should track the RAP dimension
// (flat-ish); without it, cost should grow with the lattice (2^n - 1).
#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "util/strings.h"

using namespace rap;

int main(int argc, char** argv) {
  const bench::ObsSession obs_session(argc, argv, [](util::FlagParser& flags) {
    flags.addInt("threads", 1,
                 "also time the no-deletion run with this layer fan-out "
                 "(>1 adds a column; 0 = all cores)");
    flags.addString("json-out", "BENCH_ext_scalability.json",
                    "result file ('' = don't write)");
  });
  util::setLogLevel(util::LogLevel::kWarn);
  bench::printHeader("Extension",
                     "scalability in attribute count (fixed RAP dimension)",
                     bench::kDefaultSeed);
  const auto fanout =
      static_cast<std::int32_t>(obs_session.flags().getInt("threads"));
  const std::int32_t fanout_threads =
      fanout > 0 ? fanout
                 : std::max(1, static_cast<std::int32_t>(
                                   std::thread::hardware_concurrency()));
  const bool with_fanout = fanout_threads > 1;
  // fanout_threads - 1 pool workers plus the calling thread.
  const auto pool =
      with_fanout ? std::make_unique<util::ThreadPool>(
                        static_cast<std::size_t>(fanout_threads - 1))
                  : nullptr;

  struct SchemaSpec {
    const char* label;
    std::vector<std::int32_t> cardinalities;
  };
  const std::vector<SchemaSpec> specs{
      {"2 attrs (33x20)", {33, 20}},
      {"3 attrs (+4)", {33, 20, 4}},
      {"4 attrs (+4) = Table I", {33, 20, 4, 4}},
      {"5 attrs (+ISP 8)", {33, 20, 4, 4, 8}},
      {"6 attrs (+Proto 3)", {33, 20, 4, 4, 8, 3}},
  };

  util::TextTable table;
  std::vector<std::string> header{"schema", "leaves", "cuboids", "RC@3",
                                  "time (deletion)", "time (no deletion)"};
  if (with_fanout) {
    header.push_back(
        util::strFormat("time (no del, %dt)", fanout_threads));
  }
  table.setHeader(header);

  util::JsonWriter json;
  json.beginObject();
  json.key("bench");
  json.value("ext_scalability");
  json.key("seed");
  json.value(static_cast<std::int64_t>(bench::kDefaultSeed));
  json.key("cases_per_schema");
  json.value(static_cast<std::int64_t>(15));
  bench::writeProvenance(json, fanout_threads);
  json.key("results");
  json.beginArray();

  for (const auto& spec : specs) {
    gen::RapmdConfig config;
    config.num_cases = 15;
    config.max_rap_dim = 2;  // fixed failure complexity
    config.label_noise = 0.02;
    gen::RapmdGenerator generator(
        dataset::Schema::synthetic(spec.cardinalities), config,
        bench::kDefaultSeed);
    const auto cases = generator.generate();

    core::RapMinerConfig with;
    core::RapMinerConfig without;
    without.cp.enable_attribute_deletion = false;
    const auto runs_with =
        eval::runLocalizer(eval::rapminerLocalizer(with), cases, {.k = 5});
    const auto runs_without =
        eval::runLocalizer(eval::rapminerLocalizer(without), cases, {.k = 5});

    std::vector<std::string> row{
        spec.label, std::to_string(generator.schema().leafCount()),
        std::to_string(generator.schema().cuboidCount()),
        util::TextTable::pct(eval::aggregateRecallAtK(runs_with, cases, 3)),
        util::TextTable::duration(eval::aggregateTiming(runs_with).mean()),
        util::TextTable::duration(eval::aggregateTiming(runs_without).mean())};

    json.beginObject();
    json.key("schema");
    json.value(spec.label);
    json.key("attributes");
    json.value(static_cast<std::int64_t>(spec.cardinalities.size()));
    json.key("leaves");
    json.value(static_cast<std::int64_t>(generator.schema().leafCount()));
    json.key("cuboids");
    json.value(static_cast<std::int64_t>(generator.schema().cuboidCount()));
    json.key("recall_at_3");
    json.value(eval::aggregateRecallAtK(runs_with, cases, 3));
    json.key("mean_seconds_deletion");
    json.value(eval::aggregateTiming(runs_with).mean());
    json.key("mean_seconds_no_deletion");
    json.value(eval::aggregateTiming(runs_without).mean());

    if (with_fanout) {
      const eval::NamedLocalizer fanned{
          "RAPMiner-mt",
          [&without, &pool](const dataset::LeafTable& leaves, std::int32_t k) {
            return core::RapMiner(without).localize(leaves, k, pool.get())
                .patterns;
          }};
      const auto runs_fanned = eval::runLocalizer(fanned, cases, {.k = 5});
      row.push_back(
          util::TextTable::duration(eval::aggregateTiming(runs_fanned).mean()));
      json.key("mean_seconds_no_deletion_fanout");
      json.value(eval::aggregateTiming(runs_fanned).mean());
    }
    json.endObject();
    table.addRow(row);
  }
  json.endArray();
  json.endObject();

  std::printf("%s\n", table.render().c_str());
  std::printf(
      "expected: with deletion, time tracks leaves (one CP pass + the\n"
      "RAP-dimension cuboids); without it, time additionally grows with\n"
      "the 2^n - 1 lattice.\n");

  const std::string out_path = obs_session.flags().getString("json-out");
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << std::move(json).str() << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
