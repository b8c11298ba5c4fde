#include "core/rapminer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/timer.h"

namespace rap::core {

double rapScore(double confidence, std::int32_t layer) noexcept {
  return layer <= 0 ? 0.0
                    : confidence / std::sqrt(static_cast<double>(layer));
}

RapMiner::RapMiner(RapMinerConfig config) : config_(config) {
  RAP_CHECK_MSG(config_.search.t_conf > 0.0 && config_.search.t_conf <= 1.0,
                "t_conf must be in (0,1], got " << config_.search.t_conf);
  RAP_CHECK_MSG(config_.cp.t_cp >= 0.0 && config_.cp.t_cp < 1.0,
                "t_cp must be in [0,1), got " << config_.cp.t_cp);
  RAP_CHECK_MSG(std::isfinite(config_.search.deadline_seconds) &&
                    config_.search.deadline_seconds >= 0.0,
                "deadline_seconds must be finite and >= 0, got "
                    << config_.search.deadline_seconds);
  RAP_CHECK_MSG(config_.search.max_layers >= 0,
                "max_layers must be >= 0, got " << config_.search.max_layers);
  workspaces_ = std::make_shared<WorkspacePool>();
}

RapMiner::Builder& RapMiner::Builder::config(RapMinerConfig config) {
  config_ = config;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::tCp(double t_cp) {
  config_.cp.t_cp = t_cp;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::tConf(double t_conf) {
  config_.search.t_conf = t_conf;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::attributeDeletion(bool enable) {
  config_.cp.enable_attribute_deletion = enable;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::earlyStop(bool enable) {
  config_.search.early_stop = enable;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::cuboidOrder(CuboidOrder order) {
  config_.search.order = order;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::deadlineSeconds(double seconds) {
  config_.search.deadline_seconds = seconds;
  return *this;
}
RapMiner::Builder& RapMiner::Builder::maxLayers(std::int32_t layers) {
  config_.search.max_layers = layers;
  return *this;
}

util::Status RapMiner::Builder::validate() const {
  // Every float threshold is checked for NaN/Inf FIRST, with a message
  // naming the problem: NaN compares false against both ends of a range
  // check, so a pure range test would produce a misleading "out of
  // range" diagnostic (or, written as two one-sided tests, accept NaN).
  if (!std::isfinite(config_.cp.t_cp)) {
    return util::Status::invalidArgument(util::strFormat(
        "t_cp must be a finite number, got %g", config_.cp.t_cp));
  }
  if (!(config_.cp.t_cp >= 0.0 && config_.cp.t_cp < 1.0)) {
    return util::Status::invalidArgument(util::strFormat(
        "t_cp must be in [0, 1), got %g", config_.cp.t_cp));
  }
  if (!std::isfinite(config_.search.t_conf)) {
    return util::Status::invalidArgument(util::strFormat(
        "t_conf must be a finite number, got %g", config_.search.t_conf));
  }
  if (!(config_.search.t_conf > 0.0 && config_.search.t_conf <= 1.0)) {
    return util::Status::invalidArgument(util::strFormat(
        "t_conf must be in (0, 1], got %g", config_.search.t_conf));
  }
  if (!std::isfinite(config_.search.deadline_seconds) ||
      config_.search.deadline_seconds < 0.0) {
    return util::Status::invalidArgument(util::strFormat(
        "deadline_seconds must be finite and >= 0 (0 = none), got %g",
        config_.search.deadline_seconds));
  }
  if (config_.search.max_layers < 0) {
    return util::Status::invalidArgument(util::strFormat(
        "max_layers must be >= 0 (0 = unlimited), got %d",
        config_.search.max_layers));
  }
  return util::Status::ok();
}

util::Result<RapMiner> RapMiner::Builder::build() const {
  if (auto status = validate(); !status.isOk()) return status;
  return RapMiner(config_);
}

namespace {

/// One registry write per localize() call, fed from the SearchStats the
/// hot loops already maintain — the search itself never touches an
/// atomic, so the disabled-metrics cost stays at one branch here.
void publishLocalizeMetrics(const SearchStats& stats, double total_seconds) {
  obs::MetricsRegistry& registry = obs::defaultRegistry();
  registry.counter("rap_localize_total").increment();
  registry.counter("rap_localize_attributes_deleted_total")
      .increment(static_cast<std::uint64_t>(
          std::max<std::int32_t>(stats.attributes_deleted, 0)));
  registry.counter("rap_search_cuboids_visited_total")
      .increment(stats.cuboids_visited);
  registry.counter("rap_search_combinations_evaluated_total")
      .increment(stats.combinations_evaluated);
  registry.counter("rap_search_combinations_pruned_total")
      .increment(stats.combinations_pruned);
  registry.counter("rap_search_candidates_total")
      .increment(stats.candidates_found);
  registry.gauge("rap_search_threads")
      .set(static_cast<double>(stats.search_threads));
  if (stats.early_stopped) {
    registry.counter("rap_search_early_stop_total").increment();
  }
  if (!stats.degraded_reason.empty()) {
    registry
        .counter("rap_search_degraded_total",
                 {{"reason", stats.degraded_reason}})
        .increment();
  }
  for (const auto& layer : stats.layers) {
    const obs::Labels labels{{"layer", std::to_string(layer.layer)}};
    registry.counter("rap_search_layer_cuboids_visited_total", labels)
        .increment(layer.cuboids_visited);
    registry.counter("rap_search_layer_combinations_evaluated_total", labels)
        .increment(layer.combinations_evaluated);
    registry.counter("rap_search_layer_combinations_pruned_total", labels)
        .increment(layer.combinations_pruned);
    registry
        .histogram("rap_search_layer_aggregate_seconds",
                   obs::exponentialBuckets(1e-5, 4.0, 10), labels)
        .observe(layer.seconds_aggregate);
    registry
        .histogram("rap_search_layer_merge_seconds",
                   obs::exponentialBuckets(1e-5, 4.0, 10), labels)
        .observe(std::max(layer.seconds - layer.seconds_aggregate, 0.0));
  }
  registry
      .histogram("rap_localize_seconds",
                 obs::exponentialBuckets(1e-4, 4.0, 10))
      .observe(total_seconds);
}

}  // namespace

LocalizationResult RapMiner::localize(const dataset::LeafTable& table,
                                      std::int32_t k, util::ThreadPool* pool,
                                      WorkspacePool* workspaces) const {
  RAP_TRACE_SPAN("localize",
                 {{"rows", static_cast<std::int64_t>(table.size())},
                  {"k", k}});
  const util::WallTimer total_timer;
  LocalizationResult result;

  // Nothing to localize: no rows, no attributes, or no anomalous leaf.
  // Algorithm 1 would delete every attribute and Algorithm 2 would visit
  // nothing, so skip both stages outright (the stats contract for this
  // path is documented on localize()).
  if (table.empty() || table.schema().attributeCount() == 0 ||
      table.anomalousCount() == 0) {
    if (obs::metricsEnabled()) {
      publishLocalizeMetrics(result.stats, total_timer.elapsedSeconds());
    }
    return result;
  }

  // Stage 1 — Algorithm 1.  With deletion disabled (Table VI ablation)
  // every attribute survives, still ordered by CP so the cuboid visit
  // order stays comparable.
  util::WallTimer stage_timer;
  std::vector<dataset::AttrId> kept;
  {
    RAP_TRACE_SPAN("localize/cp_deletion");
    if (config_.cp.enable_attribute_deletion) {
      kept = deleteRedundantAttributes(table, config_.cp.t_cp,
                                       &result.stats.classification_power);
    } else {
      kept = deleteRedundantAttributes(table, -1.0,
                                       &result.stats.classification_power);
    }
  }
  result.stats.kept_attributes = kept;
  result.stats.attributes_deleted =
      table.schema().attributeCount() - static_cast<std::int32_t>(kept.size());
  result.stats.seconds_attribute_deletion = stage_timer.elapsedSeconds();

  // Stage 2 — Algorithm 2, serial or fanned out across the pool.
  stage_timer.reset();
  {
    RAP_TRACE_SPAN("localize/search",
                   {{"kept_attributes",
                     static_cast<std::int64_t>(kept.size())}});
    // Check a workspace out of the retained pool (the miner's own, or
    // the caller's shared one) so repeated localizations of same-shaped
    // tables reuse the aggregation scratch.
    WorkspacePool::Lease lease =
        (workspaces != nullptr ? *workspaces : *workspaces_).lease();
    result.patterns = acGuidedSearch(table, kept, config_.search,
                                     lease.get(), result.stats, pool);
  }
  result.stats.seconds_search = stage_timer.elapsedSeconds();
  result.degraded = !result.stats.degraded_reason.empty();
  if (result.degraded) {
    RAP_LOG_KV(Warn, {"reason", result.stats.degraded_reason},
               {"candidates", static_cast<std::int64_t>(result.patterns.size())},
               {"seconds", result.stats.seconds_search})
        << "search degraded: returning partial candidate set";
  }

  // Stage 3 — RAPScore ranking (Eq. 3) and truncation to top-k.
  stage_timer.reset();
  {
    RAP_TRACE_SPAN("localize/rank");
    for (auto& pattern : result.patterns) {
      pattern.score = rapScore(pattern.confidence, pattern.layer);
    }
    std::stable_sort(result.patterns.begin(), result.patterns.end(),
                     [](const ScoredPattern& a, const ScoredPattern& b) {
                       return a.score > b.score;
                     });
    if (k > 0 && static_cast<std::int32_t>(result.patterns.size()) > k) {
      result.patterns.resize(static_cast<std::size_t>(k));
    }
  }
  result.stats.seconds_ranking = stage_timer.elapsedSeconds();

  if (obs::metricsEnabled()) {
    publishLocalizeMetrics(result.stats, total_timer.elapsedSeconds());
  }
  return result;
}

}  // namespace rap::core
