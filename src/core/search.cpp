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

/// Judges cuboid `mask` into `out`: aggregates it and applies Criteria 3
/// and 2 to each group as forEachGroup emits it, in ascending key order.
/// Only candidates of strictly lower layers can stamp, so several
/// threads may judge one layer's cuboids at once, each with its own
/// worker memory and outcome slot.
void judgeCuboid(const LeafTable& table, CuboidMask mask, double t_conf,
                 const SearchWorkspace& ws, Worker& w, Outcome& out) {
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
  std::uint32_t groups = 0;
  std::uint32_t pruned = 0;
  std::uint32_t members = 0;
  dataset::RowId scan_from = static_cast<dataset::RowId>(n);
  table.forEachGroup(mask, w.scratch, [&](const dataset::KeyedGroup& g) {
    const std::uint32_t index = groups++;
    if (stamped && w.stamp[g.first_row] == epoch) {  // Criteria 3
      pruned += 1;
      return;
    }
    const double confidence = g.confidence();
    if (confidence > t_conf) {  // Criteria 2
      out.accepted.push_back(
          {g.key, confidence, index, pruned, members, g.total});
      members += g.total;
      scan_from = std::min(scan_from, g.first_row);
    }
  });
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

/// One layer's schedule, shared by the canonical walk and the pool
/// helpers it enlisted.  Cuboids are claimed in canonical order off one
/// cursor, never `ring` or more places ahead of the walk, and judged
/// into ring slot i % ring.  The walk (seat 0) judges the next
/// unclaimed cuboid itself whenever the one it needs is not ready.
///
/// With helpers the block lives on the heap, reference-counted by the
/// walk and every enqueued helper task.  A helper claims a seat when it
/// starts; close() stops the claims and waits only for seated helpers,
/// so a helper still queued when the layer closes (behind the very task
/// that enlisted it, on a saturated pool) touches nothing but this block
/// and returns.
class LayerWalk {
 public:
  LayerWalk(const LeafTable& table, double t_conf, SearchWorkspace& ws,
            std::size_t refs)
      : table_(table), t_conf_(t_conf), ws_(ws), refs_(refs) {
    ws_.outcomes[0].cuboid = Outcome::kNone;
  }

  /// Hands up to `wanted` helper tasks to the idle workers of `pool` and
  /// sizes the ring for them; returns how many it enqueued.  The walk's
  /// reference and those of the enqueued tasks remain.
  std::size_t enlist(util::ThreadPool& pool, std::size_t wanted) {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t helpers = pool.submitToIdle(
        wanted, [self = this] { self->help(); });
    ring_ = helpers == 0 ? 1 : 2 * (helpers + 1);
    for (std::size_t slot = 0; slot < ring_; ++slot) {
      ws_.outcomes[slot].cuboid = Outcome::kNone;
    }
    refs_.fetch_sub(wanted - helpers, std::memory_order_relaxed);
    return helpers;
  }

  /// The outcome of cuboid `i`, the next one the walk accepts from.
  const Outcome& await(std::size_t i) {
    std::unique_lock<std::mutex> lock(mutex_);
    const Outcome& slot = ws_.outcomes[i % ring_];
    while (slot.cuboid != i) {
      std::size_t claimed = 0;
      if (claim(claimed)) {
        judge(claimed, ws_.workers[0], lock);
      } else {
        progress_.wait(lock);
      }
    }
    return slot;
  }

  /// The walk is done with cuboid `walked_`: its slot may be reused.
  void advance() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++walked_;
    progress_.notify_all();
  }

  /// Stops all claims and returns once every seated helper has left.
  void close() {
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    progress_.notify_all();
    progress_.wait(lock, [this] { return active_ == 0; });
  }

  /// Drops one reference; the last one frees the block.
  void release() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }

 private:
  /// A helper task: takes a seat unless the layer is closed, judges
  /// claimable cuboids until none is left, then leaves.
  void help() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (!closed_) {
        Worker& w = ws_.workers[++seats_];
        ++active_;
        for (;;) {
          std::size_t claimed = 0;
          if (claim(claimed)) {
            judge(claimed, w, lock);
          } else if (closed_ || next_ == ws_.cuboids.size()) {
            break;
          } else {
            progress_.wait(lock);  // the ring is full: wait for the walk
          }
        }
        if (--active_ == 0) progress_.notify_all();
      }
    }
    release();
  }

  /// Claims the next cuboid if the layer is open and it lies within the
  /// ring ahead of the walk.  Requires the lock.
  bool claim(std::size_t& i) {
    if (closed_ || next_ == ws_.cuboids.size() || next_ >= walked_ + ring_) {
      return false;
    }
    i = next_++;
    return true;
  }

  /// Judges claimed cuboid `i` outside the lock and publishes its slot.
  void judge(std::size_t i, Worker& w, std::unique_lock<std::mutex>& lock) {
    Outcome& slot = ws_.outcomes[i % ring_];
    lock.unlock();
    judgeCuboid(table_, ws_.cuboids[i], t_conf_, ws_, w, slot);
    lock.lock();
    slot.cuboid = i;
    progress_.notify_all();
  }

  const LeafTable& table_;
  const double t_conf_;
  SearchWorkspace& ws_;  ///< dereferenced only while the layer is open
  std::atomic<std::size_t> refs_;
  std::mutex mutex_;
  /// A cuboid was judged, the walk advanced, or a helper left.
  std::condition_variable progress_;
  // Guarded by mutex_.
  std::size_t ring_ = 1;
  std::size_t next_ = 0;    ///< next unclaimed cuboid
  std::size_t walked_ = 0;  ///< cuboids the walk has accepted from
  bool closed_ = false;
  std::size_t seats_ = 0;   ///< helpers that took a seat
  std::size_t active_ = 0;  ///< seated helpers not yet left
};

}  // namespace

std::vector<CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order) {
  std::vector<CuboidMask> out;
  std::vector<std::pair<std::uint64_t, CuboidMask>> weighted;
  orderLayer(kept, layer, order, out, weighted);
  return out;
}

// Everything that depends on the visit order — acceptance, member rows
// joining the candidate set, the early stop, the counters — happens in
// the single-threaded walk, in canonical order, whoever judged the
// cuboid.  That is what makes a search with helpers bit-identical to one
// without.
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

  // Concurrency actually used: 1 until some layer enlists pool helpers
  // (a layer with c cuboids never enlists more than c - 1).
  stats.search_threads = 1;

  // Early-stop bookkeeping: a covered flag per row and the number of
  // anomalous rows no accepted candidate covers yet.
  std::uint64_t uncovered = 0;
  if (config.early_stop) {
    ws.covered.assign(table.size(), 0);
    uncovered = table.anomalousCount();
  }

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
    LayerSearchStats layer_stats;
    layer_stats.layer = layer;
    orderLayer(kept_attributes, layer, config.order, ws.cuboids, ws.weighted);
    const std::size_t cuboids = ws.cuboids.size();

    // Fan out to the pool's idle workers, if any: the block goes on the
    // heap so helpers that start after the layer closed stay safe.
    const std::size_t wanted =
        pool != nullptr ? std::min(pool->threadCount(), cuboids - 1) : 0;
    LayerWalk serial(table, config.t_conf, ws, /*refs=*/1);
    LayerWalk* walk = &serial;
    if (wanted > 0) {
      if (ws.workers.size() < wanted + 1) ws.workers.resize(wanted + 1);
      if (ws.outcomes.size() < 2 * (wanted + 1)) {
        ws.outcomes.resize(2 * (wanted + 1));
      }
      walk = new LayerWalk(table, config.t_conf, ws, 1 + wanted);
      const std::size_t helpers = walk->enlist(*pool, wanted);
      stats.search_threads = std::max(stats.search_threads,
                                      static_cast<std::int32_t>(helpers) + 1);
    }

    // The canonical walk: accept each cuboid's surviving groups in key
    // order.  This layer's candidates collect in the pending lists, which
    // no judging thread reads.
    ws.pending.clear();
    ws.pending_rows.clear();
    bool stop = false;
    for (std::size_t i = 0; i < cuboids; ++i) {
      // Mid-layer deadline: stop before the next cuboid, keep the effort
      // already spent in the stats (the layer entry is partial, like an
      // early-stopped one).
      if (deadlineExpired()) {
        stats.degraded_reason = "deadline";
        stop = true;
        break;
      }
      layer_stats.cuboids_visited += 1;
      const CuboidMask mask = ws.cuboids[i];
      const util::WallTimer aggregate_timer;
      const Outcome& outcome = walk->await(i);
      layer_stats.seconds_aggregate += aggregate_timer.elapsedSeconds();

      for (const auto& a : outcome.accepted) {
        const std::size_t rows_begin = ws.pending_rows.size();
        ws.pending_rows.insert(ws.pending_rows.end(),
                               outcome.rows.begin() + a.rows_begin,
                               outcome.rows.begin() + a.rows_begin + a.total);
        ws.pending.push_back({mask, layer, a.key, a.confidence, rows_begin,
                              ws.pending_rows.size()});
        layer_stats.candidates_found += 1;

        // Early stop (Algorithm 2 lines 9-11): the candidate set
        // already explains every anomalous leaf.
        if (!config.early_stop) continue;
        for (std::size_t k = rows_begin; k < ws.pending_rows.size(); ++k) {
          const dataset::RowId r = ws.pending_rows[k];
          if (ws.covered[r] != 0) continue;
          ws.covered[r] = 1;
          if (table.isAnomalous(r)) uncovered -= 1;
        }
        if (uncovered == 0) {
          layer_stats.combinations_pruned += a.pruned_before;
          layer_stats.combinations_evaluated += a.index + 1 - a.pruned_before;
          stats.early_stopped = true;
          stop = true;
          break;
        }
      }
      if (stop) break;
      layer_stats.combinations_pruned += outcome.pruned;
      layer_stats.combinations_evaluated += outcome.groups - outcome.pruned;
      walk->advance();
    }

    // Helpers gone, the layer's candidates join the ones judging reads.
    walk->close();
    if (walk != &serial) walk->release();
    const std::size_t offset = ws.candidate_rows.size();
    ws.candidate_rows.insert(ws.candidate_rows.end(), ws.pending_rows.begin(),
                             ws.pending_rows.end());
    for (auto c : ws.pending) {
      c.rows_begin += offset;
      c.rows_end += offset;
      ws.candidates.push_back(c);
    }

    layer_stats.seconds = layer_timer.elapsedSeconds();
    stats.cuboids_visited += layer_stats.cuboids_visited;
    stats.combinations_evaluated += layer_stats.combinations_evaluated;
    stats.combinations_pruned += layer_stats.combinations_pruned;
    stats.candidates_found += layer_stats.candidates_found;
    stats.layers.push_back(layer_stats);
    if (stop) return result();
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
