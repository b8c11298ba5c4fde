#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "dataset/cuboid.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace rap::core {

using dataset::AttributeCombination;
using dataset::CuboidMask;
using dataset::GroupAggregate;
using dataset::LeafTable;

std::vector<CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order) {
  CuboidMask allowed = 0;
  for (const auto attr : kept) allowed |= (1u << attr);

  std::vector<CuboidMask> cuboids = dataset::cuboidsAtLayer(allowed, layer);
  if (order == CuboidOrder::kNumeric) return cuboids;

  // Weight = sum over member attributes of 2^(n - rank), so earlier
  // (higher-CP) attributes dominate the ordering.  The weights are
  // computed once per cuboid as integer bit-sums (n <= 32 member
  // attributes keeps every term, and their sum, exact in 64 bits — the
  // same values the former std::pow(2.0, n - rank) comparator produced,
  // evaluated O(C·log C) fewer times).
  const auto n = static_cast<std::int32_t>(kept.size());
  std::vector<std::pair<std::uint64_t, CuboidMask>> keyed;
  keyed.reserve(cuboids.size());
  for (const auto mask : cuboids) {
    std::uint64_t weight = 0;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      if ((mask & (1u << kept[static_cast<std::size_t>(rank)])) != 0) {
        weight += std::uint64_t{1} << (n - rank);
      }
    }
    keyed.emplace_back(weight, mask);
  }
  // (weight desc, mask asc) is a total order, so plain sort is stable
  // enough; the mask tiebreak pins equal-weight cuboids exactly like
  // the former stable_sort did.
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t i = 0; i < keyed.size(); ++i) cuboids[i] = keyed[i].second;
  return cuboids;
}

namespace {

/// Aggregates every cuboid of one layer concurrently: `pool` workers and
/// the calling thread pull cuboid indices off a shared cursor (balanced
/// even when cuboid sizes differ wildly) and write disjoint slots of
/// `ws.layer_groups` / `ws.layer_counts` through per-worker scratches.
/// Returns the number of pool helpers actually enlisted (the layer used
/// helpers + 1 threads), and only once every helper task has exited, so
/// the borrowed stack state cannot dangle even if the caller early-stops
/// the layer right after.
std::size_t aggregateLayer(const LeafTable& table,
                           const std::vector<CuboidMask>& cuboids,
                           util::ThreadPool& pool, SearchWorkspace& ws) {
  const std::size_t n = cuboids.size();
  if (ws.layer_groups.size() < n) ws.layer_groups.resize(n);
  if (ws.layer_counts.size() < n) ws.layer_counts.resize(n);
  const std::size_t helpers = std::min(pool.threadCount(), n > 0 ? n - 1 : 0);
  if (ws.scratch.size() < helpers + 1) ws.scratch.resize(helpers + 1);

  std::atomic<std::size_t> cursor{0};
  const auto work = [&table, &cuboids, &cursor, &ws, n](std::size_t worker) {
    dataset::GroupByScratch& scratch = ws.scratch[worker];
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      ws.layer_counts[i] =
          table.groupByInto(cuboids[i], scratch, ws.layer_groups[i]);
    }
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t exited = 0;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([&work, &mutex, &cv, &exited, h] {
      work(h + 1);
      // Notify while holding the lock: the waiter owns the cv's storage
      // (caller stack) and may destroy it the moment it observes the
      // final count, so the notify must complete before the count is
      // visible.
      std::lock_guard<std::mutex> lock(mutex);
      ++exited;
      cv.notify_all();
    });
  }
  work(0);
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&exited, helpers] { return exited == helpers; });
  return helpers;
}

}  // namespace

// The two schedules differ only in how a layer's per-cuboid aggregates
// are produced: the serial path computes them lazily inside the merge
// loop (so an early stop skips the rest of the layer entirely), the
// parallel path precomputes the whole layer via aggregateLayer and the
// merge then consumes the slots in canonical order.  Everything the
// result depends on — acceptance, pruning, early-stop, counters —
// happens in the single-threaded merge below, in the exact order of the
// serial reference, which is what makes the two schedules bit-identical.
std::vector<ScoredPattern> acGuidedSearch(
    const LeafTable& table, const std::vector<dataset::AttrId>& kept_attributes,
    const SearchConfig& config, SearchWorkspace& ws, SearchStats& stats,
    util::ThreadPool* pool) {
  // Deadline bookkeeping: one timer read per cuboid, and only when a
  // deadline is configured — the default (0 = none) costs one branch.
  const util::WallTimer search_timer;
  const bool has_deadline = config.deadline_seconds > 0.0;
  const auto deadlineExpired = [&]() {
    return has_deadline &&
           search_timer.elapsedSeconds() > config.deadline_seconds;
  };

  if (ws.scratch.empty()) ws.scratch.resize(1);
  std::vector<ScoredPattern> candidates;
  std::vector<AttributeCombination> candidate_acs;  // for pruning

  // Concurrency actually used: 1 until some layer enlists pool helpers;
  // aggregateLayer reports how many it took (a layer with c cuboids
  // never uses more than c threads, so small tenants report honestly).
  stats.search_threads = 1;

  // Early-stop bookkeeping: the anomalous rows not yet covered by any
  // accepted candidate.  Each acceptance filters the remainder, so the
  // coverage test costs O(remaining) instead of O(all anomalous) per
  // accepted candidate.
  std::vector<dataset::RowId> uncovered =
      config.early_stop ? table.anomalousRows()
                        : std::vector<dataset::RowId>{};

  // Accumulates the current layer's effort; flushed into stats.layers
  // when the layer finishes (or the early stop fires inside it).
  LayerSearchStats layer_stats;
  const auto flushLayer = [&stats, &layer_stats]() {
    stats.cuboids_visited += layer_stats.cuboids_visited;
    stats.combinations_evaluated += layer_stats.combinations_evaluated;
    stats.combinations_pruned += layer_stats.combinations_pruned;
    stats.candidates_found += layer_stats.candidates_found;
    stats.layers.push_back(layer_stats);
  };

  const auto max_layer = static_cast<std::int32_t>(kept_attributes.size());
  for (std::int32_t layer = 1; layer <= max_layer; ++layer) {
    // Degraded exits, checked between layers so every accepted candidate
    // below the cut is returned intact: the configured layer cap, the
    // cooperative deadline, and (chaos builds) an injected abort.
    if (config.max_layers > 0 && layer > config.max_layers) {
      stats.degraded_reason = "layer-cap";
      return candidates;
    }
    if (deadlineExpired()) {
      stats.degraded_reason = "deadline";
      return candidates;
    }
    switch (RAP_FAULT_HIT("search.layer")) {
      case fault::Action::kError:
      case fault::Action::kDrop:
        stats.degraded_reason = "fault";
        return candidates;
      default:
        break;
    }

    RAP_TRACE_SPAN("search/layer", {{"layer", layer}});
    const util::WallTimer layer_timer;
    layer_stats = LayerSearchStats{};
    layer_stats.layer = layer;

    const std::vector<CuboidMask> cuboids =
        orderedCuboids(kept_attributes, layer, config.order);

    // Parallel schedule: aggregate the whole layer up front.  Wasted
    // only when the early stop fires mid-layer (the merge then discards
    // the slots past the stop point).
    const bool parallel = pool != nullptr && cuboids.size() > 1;
    if (parallel) {
      const util::WallTimer aggregate_timer;
      const std::size_t helpers = aggregateLayer(table, cuboids, *pool, ws);
      stats.search_threads =
          std::max(stats.search_threads,
                   static_cast<std::int32_t>(helpers) + 1);
      layer_stats.seconds_aggregate = aggregate_timer.elapsedSeconds();
    }

    for (std::size_t i = 0; i < cuboids.size(); ++i) {
      // Mid-layer deadline: stop before the next aggregation, keep the
      // effort already spent in the stats (the layer entry is partial,
      // like an early-stopped one).
      if (deadlineExpired()) {
        stats.degraded_reason = "deadline";
        layer_stats.seconds = layer_timer.elapsedSeconds();
        flushLayer();
        return candidates;
      }
      layer_stats.cuboids_visited += 1;
      std::size_t group_count = 0;
      const std::vector<GroupAggregate>* groups = nullptr;
      if (parallel) {
        groups = &ws.layer_groups[i];
        group_count = ws.layer_counts[i];
      } else {
        const util::WallTimer aggregate_timer;
        group_count =
            table.groupByInto(cuboids[i], ws.scratch[0], ws.serial_groups);
        groups = &ws.serial_groups;
        layer_stats.seconds_aggregate += aggregate_timer.elapsedSeconds();
      }
      for (std::size_t gi = 0; gi < group_count; ++gi) {
        const GroupAggregate& group = (*groups)[gi];
        // Criteria 3: skip the descendants of accepted candidates.  An
        // accepted candidate always sits at a strictly lower layer, so
        // the ancestor test is exact.
        const bool pruned = std::any_of(
            candidate_acs.begin(), candidate_acs.end(),
            [&group](const AttributeCombination& ac) {
              return ac.isAncestorOf(group.ac);
            });
        if (pruned) {
          layer_stats.combinations_pruned += 1;
          continue;
        }

        layer_stats.combinations_evaluated += 1;
        const double confidence = group.confidence();
        if (confidence > config.t_conf) {  // Criteria 2
          ScoredPattern pattern;
          pattern.ac = group.ac;
          pattern.confidence = confidence;
          pattern.layer = layer;
          candidates.push_back(pattern);
          candidate_acs.push_back(group.ac);
          layer_stats.candidates_found += 1;

          // Early stop (Algorithm 2 lines 9-11): the candidate set
          // already explains every anomalous leaf.
          if (config.early_stop) {
            std::erase_if(uncovered, [&](dataset::RowId id) {
              return table.rowMatches(id, group.ac);
            });
            if (uncovered.empty()) {
              stats.early_stopped = true;
              layer_stats.seconds = layer_timer.elapsedSeconds();
              flushLayer();
              return candidates;
            }
          }
        }
      }
    }
    layer_stats.seconds = layer_timer.elapsedSeconds();
    flushLayer();
  }
  return candidates;
}

std::unique_ptr<SearchWorkspace> WorkspacePool::acquire() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      auto ws = std::move(free_.back());
      free_.pop_back();
      return ws;
    }
  }
  return std::make_unique<SearchWorkspace>();
}

void WorkspacePool::release(std::unique_ptr<SearchWorkspace> ws) {
  if (ws == nullptr) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (free_.size() < kMaxRetained) free_.push_back(std::move(ws));
}

std::size_t WorkspacePool::retained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

}  // namespace rap::core
