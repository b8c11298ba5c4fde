// perfbench — the repository benchmark harness.
//
//   perfbench --workload svc_incident|svc_deep|stream_replay --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--commit SHA]
//             [--scale-down K] [--corrupt-reference]
//
// Prints provenance and diagnostics, then as its last stdout line one
// JSON object {"correct", "attempted", "failed", "metrics"}: every
// end-to-end metric with --trace 0, every per-layer metric with
// --trace 1 (a layer a workload never enters reads 0).  Exit status 0
// iff every operation passed the correctness gate.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "util/logging.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"throughput_ops", "1/s"}, {"miss_p50_ms", "ms"},
    {"hit_p50_ms", "ms"},  {"cpu_ms_per_op", "ms"},   {"heap_peak_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"e2e.miss_p95_ms", "ms"},
    {"e2e.hit_p95_ms", "ms"},
    {"obs.transport_ms", "ms"},
    {"obs.tracing_overhead_ms", "ms"},
    {"svc.handle_ms", "ms"},
    {"svc.hash_ms", "ms"},
    {"svc.cache_get_us", "us"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.parse_ms", "ms"},
    {"svc.parse_share", "ratio"},
    {"svc.span_coverage", "ratio"},
    {"io.csv_parse_ms", "ms"},
    {"io.table_build_ms", "ms"},
    {"io.render_ms", "ms"},
    {"detect.run_ms", "ms"},
    {"core.localize_ms", "ms"},
    {"core.cp_ms", "ms"},
    {"core.search_ms", "ms"},
    {"core.search_share", "ratio"},
    {"core.search_aggregate_ms", "ms"},
    {"core.search_merge_ms", "ms"},
    {"core.cuboids_visited", "count"},
    {"core.combinations_evaluated", "count"},
    {"core.combinations_pruned", "count"},
    {"core.candidates_found", "count"},
    {"core.kept_attributes", "count"},
    {"core.layers_visited", "count"},
    {"core.candidate_yield", "ratio"},
    {"stream.ingest_call_us", "us"},
    {"stream.seal_ms", "ms"},
    {"stream.localize_ms", "ms"},
    {"stream.windows_sealed", "count"},
    {"stream.localizations", "count"},
    {"stream.late_dropped", "count"},
    {"stream.rejected", "count"},
    {"stream.lateness_p95_ms", "ms"},
    {"stream.lateness_max_ms", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "svc_incident|svc_deep|stream_replay --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH] [--commit SHA] "
               "[--scale-down K] [--corrupt-reference]\n",
               why);
  std::exit(2);
}

perfbench::Options parseArgs(int argc, char** argv, std::string* commit) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      options.corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--commit") {
      *commit = value;
    } else if (flag == "--scale-down") {
      options.scale_down = std::max(1, std::atoi(value));
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string commit = "unknown";
  const perfbench::Options options = parseArgs(argc, argv, &commit);
  rap::util::setLogLevel(rap::util::LogLevel::kWarn);

  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"nproc\":%zu,\"build_type\":\"%s\",\"compiler\":\"gcc "
      "%s\",\"commit\":\"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, perfbench::loadThreadBudget(),
      PERFBENCH_BUILD_TYPE, __VERSION__, commit.c_str());
  std::fflush(stdout);

  perfbench::RunResult result;
  if (options.workload == "svc_incident" || options.workload == "svc_deep") {
    result = perfbench::runSvcWorkload(options);
  } else if (options.workload == "stream_replay") {
    result = perfbench::runStreamWorkload(options);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }

  std::string metrics;
  const auto emit = [&](const MetricSpec& spec) {
    double value = 0.0;
    for (const Metric& metric : result.metrics) {
      if (metric.name == spec.name) value = metric.value;
    }
    if (!std::isfinite(value)) {
      result.fail(std::string("metric ") + spec.name + " is not finite");
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value, spec.unit);
    metrics += buf;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  for (const std::string& why : result.errors) {
    std::fprintf(stderr, "FAIL: %s\n", why.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct && result.failed == 0 ? 0 : 1;
}
