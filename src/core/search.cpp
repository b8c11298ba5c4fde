#include "core/search.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "dataset/cuboid.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace rap::core {

using dataset::CuboidMask;
using dataset::LeafTable;

namespace {

using Worker = SearchWorkspace::Worker;
using Outcome = SearchWorkspace::Outcome;

/// Fills `out` with the cuboids of `layer` over `kept` in visit order,
/// through the caller's buffers (no allocation once they are warm).
void orderLayer(const std::vector<dataset::AttrId>& kept, std::int32_t layer,
                CuboidOrder order, std::vector<CuboidMask>& out,
                std::vector<std::pair<std::uint64_t, CuboidMask>>& weighted) {
  CuboidMask allowed = 0;
  for (const auto attr : kept) allowed |= (1u << attr);
  // Submasks of `allowed` with `layer` bits, ascending (the enumeration
  // runs descending).
  out.clear();
  for (CuboidMask sub = allowed; sub != 0; sub = (sub - 1) & allowed) {
    if (std::popcount(sub) == layer) out.push_back(sub);
  }
  std::reverse(out.begin(), out.end());
  if (order == CuboidOrder::kNumeric) return;

  // Weight = sum over member attributes of 2^(n - rank), so earlier
  // (higher-CP) attributes dominate the ordering.  The weights are
  // computed once per cuboid as integer bit-sums (n <= 32 member
  // attributes keeps every term, and their sum, exact in 64 bits — the
  // same values the former std::pow(2.0, n - rank) comparator produced,
  // evaluated O(C·log C) fewer times).
  const auto n = static_cast<std::int32_t>(kept.size());
  weighted.clear();
  for (const auto mask : out) {
    std::uint64_t weight = 0;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      if ((mask & (1u << kept[static_cast<std::size_t>(rank)])) != 0) {
        weight += std::uint64_t{1} << (n - rank);
      }
    }
    weighted.emplace_back(weight, mask);
  }
  // (weight desc, mask asc) is a total order, so plain sort is stable
  // enough; the mask tiebreak pins equal-weight cuboids exactly like
  // the former stable_sort did.
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t i = 0; i < weighted.size(); ++i) {
    out[i] = weighted[i].second;
  }
}

/// Applies Criteria 3 and 2 to the `groups` groups of cuboid `mask` that
/// groupByInto just left in `w`, in ascending key order.  Only
/// candidates of strictly lower layers can stamp, so several workers may
/// judge one layer's cuboids at once, each with its own worker memory
/// and outcome slot.
void judgeCuboid(const LeafTable& table, CuboidMask mask, std::size_t groups,
                 double t_conf, const SearchWorkspace& ws, Worker& w,
                 Outcome& out) {
  const std::size_t n = table.size();

  // Stamp the rows of every accepted candidate whose cuboid is a proper
  // subset of `mask`.  A group is a descendant of such a candidate iff
  // its rows (which share their projection onto `mask`, hence onto the
  // candidate's cuboid) are the candidate's rows, so testing the first
  // one suffices.  Stamps from earlier cuboids carry older epochs.
  if (w.stamp.size() < n) w.stamp.resize(n);
  if (++w.epoch == 0) {
    std::fill(w.stamp.begin(), w.stamp.end(), 0);
    w.epoch = 1;
  }
  const std::uint32_t epoch = w.epoch;
  bool stamped = false;
  for (const auto& c : ws.candidates) {
    if ((c.mask & mask) != c.mask || c.mask == mask) continue;
    stamped = true;
    for (std::size_t i = c.rows_begin; i < c.rows_end; ++i) {
      w.stamp[ws.candidate_rows[i]] = epoch;
    }
  }

  out.accepted.clear();
  std::uint32_t pruned = 0;
  std::uint32_t members = 0;
  dataset::RowId scan_from = static_cast<dataset::RowId>(n);
  for (std::size_t gi = 0; gi < groups; ++gi) {
    const dataset::KeyedGroup& g = w.groups[gi];
    if (stamped && w.stamp[g.first_row] == epoch) {  // Criteria 3
      pruned += 1;
      continue;
    }
    const double confidence = g.confidence();
    if (confidence > t_conf) {  // Criteria 2
      out.accepted.push_back({g.key, confidence,
                              static_cast<std::uint32_t>(gi), pruned, members,
                              g.total});
      members += g.total;
      scan_from = std::min(scan_from, g.first_row);
    }
  }
  out.groups = groups;
  out.pruned = pruned;

  // Member rows of the accepted groups, read off the key array of this
  // sweep: one pass from the first member row until all are placed.
  out.rows.resize(members);
  if (members == 0) return;
  const auto& accepted = out.accepted;
  w.fill.resize(accepted.size());
  for (std::size_t j = 0; j < accepted.size(); ++j) {
    w.fill[j] = accepted[j].rows_begin;
  }
  const std::uint64_t* keys = w.scratch.keys.data();
  std::uint32_t placed = 0;
  for (std::size_t r = scan_from; r < n && placed < members; ++r) {
    const auto it = std::lower_bound(
        accepted.begin(), accepted.end(), keys[r],
        [](const Outcome::Accepted& a, std::uint64_t key) {
          return a.key < key;
        });
    if (it == accepted.end() || it->key != keys[r]) continue;
    out.rows[w.fill[static_cast<std::size_t>(it - accepted.begin())]++] =
        static_cast<dataset::RowId>(r);
    ++placed;
  }
}

/// Aggregates and judges every cuboid of one layer concurrently: `pool`
/// workers and the calling thread pull cuboid indices off a shared
/// cursor (balanced even when cuboid sizes differ wildly) and write
/// disjoint slots of
/// `ws.outcomes` through per-worker memory.  Returns the number of pool
/// helpers actually enlisted (the layer used helpers + 1 threads), and
/// only once every helper task has exited, so the borrowed stack state
/// cannot dangle even if the caller early-stops the layer right after.
std::size_t evaluateLayer(const LeafTable& table, double t_conf,
                          util::ThreadPool& pool, SearchWorkspace& ws) {
  const std::size_t n = ws.cuboids.size();
  if (ws.outcomes.size() < n) ws.outcomes.resize(n);
  const std::size_t helpers = std::min(pool.threadCount(), n > 0 ? n - 1 : 0);
  if (ws.workers.size() < helpers + 1) ws.workers.resize(helpers + 1);

  std::atomic<std::size_t> cursor{0};
  const auto work = [&table, &cursor, &ws, t_conf, n](std::size_t worker) {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      Worker& w = ws.workers[worker];
      const CuboidMask mask = ws.cuboids[i];
      judgeCuboid(table, mask, table.groupByInto(mask, w.scratch, w.groups),
                  t_conf, ws, w, ws.outcomes[i]);
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

std::vector<CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order) {
  std::vector<CuboidMask> out;
  std::vector<std::pair<std::uint64_t, CuboidMask>> weighted;
  orderLayer(kept, layer, order, out, weighted);
  return out;
}

// The two schedules differ only in when a layer's cuboid outcomes are
// produced: the serial path evaluates each cuboid right before walking
// it (so an early stop skips the rest of the layer entirely), the
// pooled path evaluates the whole layer via evaluateLayer and then walks
// the slots in canonical order.  Everything that depends on the order —
// acceptance, member rows joining the candidate set, the early stop,
// the counters — happens in that single-threaded walk, in the exact
// order of the serial reference, which is what makes the two schedules
// bit-identical.
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

  if (ws.workers.empty()) ws.workers.resize(1);
  if (ws.outcomes.empty()) ws.outcomes.resize(1);
  ws.candidates.clear();
  ws.candidate_rows.clear();
  // The accepted candidates, decoded once each: every exit returns this.
  const auto result = [&table, &ws]() {
    std::vector<ScoredPattern> out;
    out.reserve(ws.candidates.size());
    for (const auto& c : ws.candidates) {
      ScoredPattern& pattern = out.emplace_back();
      pattern.ac = dataset::combinationFromKey(table.schema(), c.mask, c.key);
      pattern.confidence = c.confidence;
      pattern.layer = c.layer;
    }
    return out;
  };

  // Concurrency actually used: 1 until some layer enlists pool helpers;
  // evaluateLayer reports how many it took (a layer with c cuboids
  // never uses more than c threads, so small tenants report honestly).
  stats.search_threads = 1;

  // Early-stop bookkeeping: a covered flag per row and the number of
  // anomalous rows no accepted candidate covers yet.
  std::uint64_t uncovered = 0;
  if (config.early_stop) {
    ws.covered.assign(table.size(), 0);
    uncovered = table.anomalousCount();
  }

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
      return result();
    }
    if (deadlineExpired()) {
      stats.degraded_reason = "deadline";
      return result();
    }
    switch (RAP_FAULT_HIT("search.layer")) {
      case fault::Action::kError:
      case fault::Action::kDrop:
        stats.degraded_reason = "fault";
        return result();
      default:
        break;
    }

    RAP_TRACE_SPAN("search/layer", {{"layer", layer}});
    const util::WallTimer layer_timer;
    layer_stats = LayerSearchStats{};
    layer_stats.layer = layer;
    orderLayer(kept_attributes, layer, config.order, ws.cuboids, ws.weighted);

    // Pooled schedule: evaluate the whole layer up front.  Wasted only
    // when the early stop fires mid-layer (the walk then discards the
    // slots past the stop point).
    const bool parallel = pool != nullptr && ws.cuboids.size() > 1;
    if (parallel) {
      const util::WallTimer aggregate_timer;
      const std::size_t helpers =
          evaluateLayer(table, config.t_conf, *pool, ws);
      stats.search_threads =
          std::max(stats.search_threads,
                   static_cast<std::int32_t>(helpers) + 1);
      layer_stats.seconds_aggregate = aggregate_timer.elapsedSeconds();
    }

    for (std::size_t i = 0; i < ws.cuboids.size(); ++i) {
      // Mid-layer deadline: stop before the next cuboid, keep the effort
      // already spent in the stats (the layer entry is partial, like an
      // early-stopped one).
      if (deadlineExpired()) {
        stats.degraded_reason = "deadline";
        layer_stats.seconds = layer_timer.elapsedSeconds();
        flushLayer();
        return result();
      }
      layer_stats.cuboids_visited += 1;
      const CuboidMask mask = ws.cuboids[i];
      Outcome& outcome = ws.outcomes[parallel ? i : 0];
      if (!parallel) {
        Worker& w = ws.workers[0];
        const util::WallTimer aggregate_timer;
        const std::size_t groups = table.groupByInto(mask, w.scratch, w.groups);
        layer_stats.seconds_aggregate += aggregate_timer.elapsedSeconds();
        judgeCuboid(table, mask, groups, config.t_conf, ws, w, outcome);
      }

      // The canonical walk: accept the surviving groups in key order.
      for (const auto& a : outcome.accepted) {
        const std::size_t rows_begin = ws.candidate_rows.size();
        ws.candidate_rows.insert(ws.candidate_rows.end(),
                                 outcome.rows.begin() + a.rows_begin,
                                 outcome.rows.begin() + a.rows_begin + a.total);
        ws.candidates.push_back({mask, layer, a.key, a.confidence, rows_begin,
                                 ws.candidate_rows.size()});
        layer_stats.candidates_found += 1;

        // Early stop (Algorithm 2 lines 9-11): the candidate set
        // already explains every anomalous leaf.
        if (!config.early_stop) continue;
        for (std::size_t k = rows_begin; k < ws.candidate_rows.size(); ++k) {
          const dataset::RowId r = ws.candidate_rows[k];
          if (ws.covered[r] != 0) continue;
          ws.covered[r] = 1;
          if (table.isAnomalous(r)) uncovered -= 1;
        }
        if (uncovered == 0) {
          layer_stats.combinations_pruned += a.pruned_before;
          layer_stats.combinations_evaluated += a.index + 1 - a.pruned_before;
          stats.early_stopped = true;
          layer_stats.seconds = layer_timer.elapsedSeconds();
          flushLayer();
          return result();
        }
      }
      layer_stats.combinations_pruned += outcome.pruned;
      layer_stats.combinations_evaluated += outcome.groups - outcome.pruned;
    }
    layer_stats.seconds = layer_timer.elapsedSeconds();
    flushLayer();
  }
  return result();
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
