// Shared workload builders and formatting for the bench harnesses.
// Every harness prints its seed and workload sizes so the tables in
// EXPERIMENTS.md are reproducible.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "eval/runner.h"
#include "gen/rapmd.h"
#include "gen/squeeze_gen.h"
#include "obs/build_info.h"
#include "obs/export.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/table.h"

namespace rap::bench {

inline constexpr std::uint64_t kDefaultSeed = 20220627;  // DSN'22 week

/// Opt-in telemetry for the bench harnesses: parses --metrics-out /
/// --trace-out / --log-json, enables the requested sinks for the run,
/// and dumps the snapshots when the harness exits.  With no flags the
/// pipeline instrumentation stays disabled (its near-zero default), so
/// timing harnesses measure the same code path as before.
class ObsSession {
 public:
  /// `add_flags` lets a harness register its own flags on the shared
  /// parser before parsing (read them back via flags()).
  ObsSession(int argc, char** argv,
             const std::function<void(util::FlagParser&)>& add_flags = {}) {
    obs::addObsFlags(flags_);
    if (add_flags) add_flags(flags_);
    if (auto status = flags_.parse(argc, argv); !status.isOk()) {
      std::fprintf(stderr, "%s\n%s", status.toString().c_str(),
                   flags_.helpText(argv[0]).c_str());
      std::exit(2);
    }
    obs::enableFromFlags(flags_);
  }
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
  ~ObsSession() { (void)obs::dumpFromFlags(flags_); }

  /// Non-flag arguments (some harnesses take a dataset directory).
  const std::vector<std::string>& positional() const noexcept {
    return flags_.positional();
  }

  /// Access to harness flags registered via the constructor callback.
  const util::FlagParser& flags() const noexcept { return flags_; }

 private:
  util::FlagParser flags_;
};

/// The paper's RAPMD workload: 105 failure timepoints on the Table I CDN
/// schema.  A 2% leaf-verdict flip rate emulates the detection errors a
/// real forecasting model leaves behind (the paper's background KPIs are
/// sparse and noisy, §V-A) — without it every confidence is exactly 1.0
/// and the t_conf sensitivity of Fig. 10(b) would be degenerate.
inline std::vector<gen::Case> makeRapmdCases(std::uint64_t seed,
                                             std::int32_t num_cases = 105,
                                             double label_noise = 0.02) {
  gen::RapmdConfig config;
  config.num_cases = num_cases;
  config.label_noise = label_noise;
  gen::RapmdGenerator generator(dataset::Schema::cdn(), config, seed);
  return generator.generate();
}

/// The paper's Squeeze-B0 workload: groups (n,m), n,m in 1..3.
inline std::vector<gen::SqueezeGroup> makeSqueezeGroups(
    std::uint64_t seed, std::int32_t cases_per_group = 25,
    std::int32_t noise_level = 0) {
  gen::SqueezeGenConfig config;
  config.cases_per_group = cases_per_group;
  config.noise_sigma = gen::squeezeNoiseSigma(noise_level);
  gen::SqueezeGenerator generator(config, seed);
  return generator.generateAllGroups();
}

inline std::string groupLabel(const gen::SqueezeGroup& group) {
  return "(" + std::to_string(group.n_dims) + "," +
         std::to_string(group.n_raps) + ")";
}

inline void printHeader(const char* figure, const char* description,
                        std::uint64_t seed) {
  std::printf("== %s — %s ==\n", figure, description);
  std::printf("seed=%llu\n\n", static_cast<unsigned long long>(seed));
}

/// Measurement provenance, written as a "provenance" object into every
/// BENCH_*.json.  A committed baseline from a 1-core CI runner must be
/// distinguishable from a 16-core dev box, and a Debug build from a
/// Release one — otherwise a regression gate compares apples to oranges.
/// `threads` is the worker count the harness actually used (for sweeps,
/// the largest swept value).
inline void writeProvenance(util::JsonWriter& json, std::int64_t threads) {
  const obs::BuildInfo& build = obs::buildInfo();
  json.key("provenance");
  json.beginObject();
  json.key("hardware_concurrency");
  json.value(static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  json.key("threads");
  json.value(threads);
  json.key("build_type");
  json.value(build.build_type);
  json.key("compiler");
  json.value(build.compiler);
  json.endObject();
}

}  // namespace rap::bench
