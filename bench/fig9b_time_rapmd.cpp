// Fig. 9(b): average localization running time on RAPMD, per method.
//
// --sweep-threads turns the harness into the parallel-search scalability
// study instead: RAPMiner only, one run per thread count on a wider
// synthetic schema (8 attributes, deletion disabled, so every layer has
// enough cuboids to fan out), asserting that each thread count returns
// exactly the patterns of the serial reference before recording its
// timing.  The sweep writes BENCH_parallel_search.json for CI trending,
// with each thread count's mean aggregate and merge seconds per lattice
// layer (LayerSearchStats: merge = seconds - seconds_aggregate).
//
// --reuse appends the workspace-reuse study: the same cases localized
// cold (a fresh miner per call, the pre-pooling per-request shape) and
// warm (one retained miner whose WorkspacePool keeps the search
// buffers), asserting identical patterns and recording both timings in
// a "reuse" section of the JSON.  On its own it runs a serial sweep.
//
//   $ ./fig9b_time_rapmd                                  # paper figure
//   $ ./fig9b_time_rapmd --sweep-threads 1,2,4,8 --reuse \
//       --sweep-cases 20 --json-out BENCH_parallel_search.json
#include <algorithm>
#include <fstream>
#include <memory>
#include <thread>

#include "bench/bench_common.h"
#include "util/json_writer.h"
#include "util/strings.h"

using namespace rap;

namespace {

/// The sweep workload: 8 attributes so layers 2..4 hold 28/56/70
/// cuboids — enough independent aggregations per layer for the fan-out
/// to matter.  Deletion stays off so the lattice is not collapsed first.
std::vector<gen::Case> makeSweepCases(std::uint64_t seed,
                                      std::int32_t num_cases) {
  gen::RapmdConfig config;
  config.num_cases = num_cases;
  config.label_noise = 0.02;
  gen::RapmdGenerator generator(
      dataset::Schema::synthetic({8, 6, 5, 4, 4, 3, 3, 2}), config, seed);
  return generator.generate();
}

bool samePatterns(const std::vector<core::ScoredPattern>& a,
                  const std::vector<core::ScoredPattern>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].ac == b[i].ac) || a[i].confidence != b[i].confidence ||
        a[i].layer != b[i].layer || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

/// Cold-vs-warm workspace study (--reuse): the same cases localized by
/// a fresh serial miner per call (cold — every call pays the
/// aggregation-scratch allocations, the per-request shape the svc job
/// path had before workspace pooling) and by one retained
/// miner (warm — its WorkspacePool keeps the buffers, so steady-state
/// calls are allocation-free).  The patterns must match exactly.
struct ReuseStudy {
  util::TimingStats cold;
  util::TimingStats warm;
  bool identical = true;
};

ReuseStudy runReuseStudy(const std::vector<gen::Case>& cases,
                         const core::RapMinerConfig& config, int passes) {
  ReuseStudy study;
  const core::RapMiner warm_miner(config);
  // Warm pass: sizes the retained workspaces (and the caches, for both
  // sides — the cold miner touches the same tables).
  for (const auto& c : cases) warm_miner.localize(c.table, 0);
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto& c : cases) {
      util::WallTimer timer;
      const core::RapMiner cold_miner(config);
      const auto cold_result = cold_miner.localize(c.table, 0);
      study.cold.add(timer.elapsedSeconds());
      timer.reset();
      const auto warm_result = warm_miner.localize(c.table, 0);
      study.warm.add(timer.elapsedSeconds());
      if (!samePatterns(cold_result.patterns, warm_result.patterns)) {
        study.identical = false;
      }
    }
  }
  return study;
}

int runThreadSweep(const util::FlagParser& flags) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.getInt("seed"));
  const auto num_cases = static_cast<std::int32_t>(flags.getInt("sweep-cases"));
  std::vector<std::int32_t> thread_counts;
  const std::string sweep_spec = flags.getString("sweep-threads");
  if (!sweep_spec.empty()) {
    for (const auto& field : util::split(sweep_spec, ',')) {
      thread_counts.push_back(std::atoi(field.c_str()));
      if (thread_counts.back() < 1) {
        std::fprintf(stderr, "bad --sweep-threads entry '%s'\n",
                     field.c_str());
        return 2;
      }
    }
  }
  if (thread_counts.empty() || thread_counts.front() != 1) {
    // The serial run is the correctness + speedup baseline.  (--reuse
    // with no --sweep-threads lands here too: a serial-only sweep.)
    thread_counts.insert(thread_counts.begin(), 1);
  }

  bench::printHeader("Parallel search sweep",
                     "RAPMiner layer fan-out vs thread count", seed);
  const auto cases = makeSweepCases(seed, num_cases);
  std::printf("cases=%d schema=8 attrs (69,120 leaves) deletion=off\n\n",
              num_cases);

  core::RapMinerConfig base;
  base.cp.enable_attribute_deletion = false;

  // Serial reference: patterns per case, reused to check every other
  // thread count, plus the speedup denominator.
  std::vector<std::vector<core::ScoredPattern>> reference;
  double serial_mean = 0.0;

  util::TextTable table;
  table.setHeader({"threads", "mean", "p50", "p95", "max", "speedup"});

  util::JsonWriter json;
  json.beginObject();
  json.key("bench");
  json.value("parallel_search");
  json.key("seed");
  json.value(static_cast<std::int64_t>(seed));
  json.key("cases");
  json.value(static_cast<std::int64_t>(num_cases));
  json.key("schema_attributes");
  json.value(static_cast<std::int64_t>(8));
  json.key("hardware_concurrency");
  json.value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  bench::writeProvenance(
      json, *std::max_element(thread_counts.begin(), thread_counts.end()));
  json.key("results");
  json.beginArray();

  const core::RapMiner miner(base);
  std::vector<std::string> layer_splits;
  for (const auto threads : thread_counts) {
    // threads - 1 pool workers plus the calling thread; 1 = serial.
    const auto pool =
        threads > 1 ? std::make_unique<util::ThreadPool>(
                          static_cast<std::size_t>(threads - 1))
                    : nullptr;

    util::TimingStats timing;
    // Per lattice layer: summed aggregate and merge seconds over cases.
    std::vector<std::pair<double, double>> layer_seconds;
    bool identical = true;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const util::WallTimer timer;
      const auto result =
          miner.localize(cases[i].table, /*k=*/0, pool.get());
      timing.add(timer.elapsedSeconds());
      for (const auto& layer : result.stats.layers) {
        const auto index = static_cast<std::size_t>(layer.layer - 1);
        if (layer_seconds.size() <= index) layer_seconds.resize(index + 1);
        layer_seconds[index].first += layer.seconds_aggregate;
        layer_seconds[index].second += layer.seconds - layer.seconds_aggregate;
      }
      if (threads == 1) {
        reference.push_back(result.patterns);
      } else if (!samePatterns(result.patterns, reference[i])) {
        identical = false;
      }
    }
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: threads=%d diverged from the serial patterns\n",
                   threads);
      return 1;
    }
    if (threads == 1) serial_mean = timing.mean();
    const double speedup =
        timing.mean() > 0.0 ? serial_mean / timing.mean() : 0.0;

    table.addRow({std::to_string(threads),
                  util::TextTable::duration(timing.mean()),
                  util::TextTable::duration(timing.percentile(0.5)),
                  util::TextTable::duration(timing.percentile(0.95)),
                  util::TextTable::duration(timing.max()),
                  util::strFormat("%.2fx", speedup)});

    json.beginObject();
    json.key("threads");
    json.value(static_cast<std::int64_t>(threads));
    json.key("mean_seconds");
    json.value(timing.mean());
    json.key("p50_seconds");
    json.value(timing.percentile(0.5));
    json.key("p95_seconds");
    json.value(timing.percentile(0.95));
    json.key("max_seconds");
    json.value(timing.max());
    json.key("speedup_vs_serial");
    json.value(speedup);
    json.key("patterns_match_serial");
    json.value(true);
    // Mean per case; merge = layer seconds - aggregate seconds.
    json.key("layers");
    json.beginArray();
    std::string split;
    for (std::size_t l = 0; l < layer_seconds.size(); ++l) {
      const double aggregate =
          layer_seconds[l].first / static_cast<double>(cases.size());
      const double merge =
          layer_seconds[l].second / static_cast<double>(cases.size());
      json.beginObject();
      json.key("layer");
      json.value(static_cast<std::int64_t>(l + 1));
      json.key("aggregate_seconds");
      json.value(aggregate);
      json.key("merge_seconds");
      json.value(merge);
      json.endObject();
      split += util::strFormat(" L%zu %.1f/%.1f", l + 1, aggregate * 1e3,
                               merge * 1e3);
    }
    json.endArray();
    json.endObject();
    layer_splits.push_back(util::strFormat("threads=%d:", threads) + split);
  }
  json.endArray();

  std::printf("%s\n", table.render().c_str());
  std::printf("per-layer aggregate/merge ms (mean per case):\n");
  for (const auto& line : layer_splits) std::printf("  %s\n", line.c_str());
  std::printf(
      "speedup is bounded by the machine: hardware_concurrency=%u\n",
      std::thread::hardware_concurrency());

  if (flags.getBool("reuse")) {
    const auto study = runReuseStudy(cases, base, /*passes=*/3);
    if (!study.identical) {
      std::fprintf(stderr,
                   "FATAL: warm (workspace-reuse) patterns diverged from the "
                   "cold per-call miner\n");
      return 1;
    }
    const double warm_speedup = study.warm.mean() > 0.0
                                    ? study.cold.mean() / study.warm.mean()
                                    : 0.0;
    util::TextTable reuse_table;
    reuse_table.setHeader({"workspace", "mean", "p50", "p95", "max"});
    const auto addTimingRow = [&reuse_table](const char* label,
                                             const util::TimingStats& timing) {
      reuse_table.addRow({label, util::TextTable::duration(timing.mean()),
                          util::TextTable::duration(timing.percentile(0.5)),
                          util::TextTable::duration(timing.percentile(0.95)),
                          util::TextTable::duration(timing.max())});
    };
    addTimingRow("cold", study.cold);
    addTimingRow("warm", study.warm);
    std::printf("\nworkspace reuse (serial, %zu samples each): %.2fx\n%s\n",
                study.cold.count(), warm_speedup,
                reuse_table.render().c_str());

    json.key("reuse");
    json.beginObject();
    json.key("passes");
    json.value(static_cast<std::int64_t>(3));
    json.key("cold_mean_seconds");
    json.value(study.cold.mean());
    json.key("cold_p95_seconds");
    json.value(study.cold.percentile(0.95));
    json.key("warm_mean_seconds");
    json.value(study.warm.mean());
    json.key("warm_p95_seconds");
    json.value(study.warm.percentile(0.95));
    json.key("warm_speedup");
    json.value(warm_speedup);
    json.key("patterns_match_cold");
    json.value(true);
    json.endObject();
  }
  json.endObject();

  const std::string out_path = flags.getString("json-out");
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

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsSession obs_session(argc, argv, [](util::FlagParser& flags) {
    flags.addString("sweep-threads", "",
                    "comma-separated thread counts; non-empty switches the "
                    "harness to the parallel-search sweep");
    flags.addInt("sweep-cases", 10, "RAPMD cases per thread count (sweep)");
    flags.addInt("seed", static_cast<std::int64_t>(bench::kDefaultSeed),
                 "workload seed");
    flags.addString("json-out", "BENCH_parallel_search.json",
                    "sweep result file ('' = don't write)");
    flags.addBool("reuse", false,
                  "append the cold-vs-warm workspace-reuse study to the "
                  "sweep (alone it runs a serial-only sweep)");
  });
  util::setLogLevel(util::LogLevel::kWarn);

  if (!obs_session.flags().getString("sweep-threads").empty() ||
      obs_session.flags().getBool("reuse")) {
    return runThreadSweep(obs_session.flags());
  }

  bench::printHeader("Fig. 9(b)", "mean running time on RAPMD",
                     bench::kDefaultSeed);

  const auto cases = bench::makeRapmdCases(bench::kDefaultSeed);
  const auto localizers = eval::standardLocalizers();

  util::TextTable table;
  table.setHeader({"method", "mean", "p50", "p95", "max"});
  for (const auto& localizer : localizers) {
    const auto runs = eval::runLocalizer(localizer, cases, {.k = 5});
    const auto timing = eval::aggregateTiming(runs);
    table.addRow({localizer.name, util::TextTable::duration(timing.mean()),
                  util::TextTable::duration(timing.percentile(0.5)),
                  util::TextTable::duration(timing.percentile(0.95)),
                  util::TextTable::duration(timing.max())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "paper shape: RAPMiner slightly behind Squeeze/FP-growth (3-dim RAPs\n"
      "cost BFS depth) but in an acceptable range; iDice worst.\n");
  return 0;
}
