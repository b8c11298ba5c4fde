// The benchmark workloads.  Each builds its inputs from the seed, runs
// the untraced measurement (and, with Options::trace, the traced replay)
// and returns its metrics under the names BENCHMARK.json lists.
#pragma once

#include <vector>

#include "common.h"
#include "core/types.h"

namespace perfbench {

/// svc_incident and svc_deep: HTTP localize requests against the
/// in-process serving stack.
RunResult runSvcWorkload(const Options& options);

/// stream_replay: paced window replay into an in-process StreamEngine.
RunResult runStreamWorkload(const Options& options);

/// The core.* effort metrics of a set of searches: aggregate vs merge
/// time (merge = layer seconds minus seconds_aggregate) and the lattice
/// counters, as medians per search; candidate_yield as a ratio of sums.
void addSearchEffortMetrics(const std::vector<rap::core::SearchStats>& efforts,
                            RunResult& result);

/// Samples needed beyond a p95 for it to rest on >= 10 observations.
inline constexpr std::size_t kMinTailSamples = 200;

/// A paced run whose load generator sent later than this (actual minus
/// due send time, over the sends it was free to make on time) is invalid.
inline constexpr double kLatenessP95BoundMs = 20.0;
inline constexpr double kLatenessMaxBoundMs = 500.0;

}  // namespace perfbench
