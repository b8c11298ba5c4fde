// Result types of the RAPMiner pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/attribute_combination.h"

namespace rap::core {

/// One localized root anomaly pattern with its ranking signals.
struct ScoredPattern {
  dataset::AttributeCombination ac;
  double confidence = 0.0;  ///< Confidence(ac => Anomaly), Criteria 2
  std::int32_t layer = 0;   ///< cuboid layer the pattern was found in
  double score = 0.0;       ///< RAPScore = confidence / sqrt(layer), Eq. 3
};

/// Search effort spent inside one cuboid layer of Algorithm 2.
struct LayerSearchStats {
  std::int32_t layer = 0;  ///< cuboid layer (1 = single attributes)
  std::uint64_t cuboids_visited = 0;
  std::uint64_t combinations_evaluated = 0;
  /// Combinations skipped by Criteria 3 (descendant of an accepted RAP).
  std::uint64_t combinations_pruned = 0;
  std::uint64_t candidates_found = 0;
  double seconds = 0.0;  ///< wall time spent in this layer
  /// Wall time the layer's canonical walk spent obtaining cuboid
  /// outcomes: aggregating and judging cuboids itself
  /// (LeafTable::forEachGroup, Criteria 3 and 2, member rows) or
  /// waiting for a pool helper's.  The rest of the layer, seconds -
  /// seconds_aggregate, is its merge time: accepting candidates, the
  /// early stop, closing the layer.
  double seconds_aggregate = 0.0;
};

/// Search-effort counters — the quantities behind the paper's efficiency
/// claims (Fig. 9, Table IV, Table VI).
struct SearchStats {
  std::vector<double> classification_power;  ///< CP per attribute (Eq. 1)
  std::vector<dataset::AttrId> kept_attributes;  ///< Alg. 1 output order
  std::int32_t attributes_deleted = 0;
  std::uint64_t cuboids_visited = 0;
  std::uint64_t combinations_evaluated = 0;
  std::uint64_t combinations_pruned = 0;
  std::uint64_t candidates_found = 0;
  bool early_stopped = false;
  /// Non-empty when Algorithm 2 returned a PARTIAL candidate set after
  /// hitting a resource bound instead of exhausting the lattice:
  /// "deadline" (SearchConfig.deadline_seconds expired), "layer-cap"
  /// (SearchConfig.max_layers reached with layers left), or "fault"
  /// (an injected search.layer abort — chaos builds only).  The
  /// candidates returned are exactly those accepted before the cut, so
  /// a degraded result is still a valid (if incomplete) localization.
  std::string degraded_reason;
  /// Concurrency the search ACTUALLY used: 1 + the most pool helpers
  /// any layer enlisted — no more than the pool's idle workers at that
  /// moment, and a layer with c cuboids never uses more than c threads.
  /// 1 = every layer was judged by the walk alone (no pool, a busy
  /// pool, trivial tables, single-cuboid layers).  It depends on pool
  /// occupancy, so the result document (io::resultToJson) leaves it
  /// out.
  std::int32_t search_threads = 1;
  /// Per-layer breakdown of the totals above, in visit order; the last
  /// entry is partial when the search early-stopped inside it.
  std::vector<LayerSearchStats> layers;
  /// Wall time per localization stage (always measured; the cost is one
  /// steady_clock read per stage).
  double seconds_attribute_deletion = 0.0;  ///< Algorithm 1
  double seconds_search = 0.0;              ///< Algorithm 2
  double seconds_ranking = 0.0;             ///< Eq. 3 sort + truncate
};

struct LocalizationResult {
  std::vector<ScoredPattern> patterns;  ///< sorted by RAPScore descending
  SearchStats stats;
  /// True when the search was cut short (deadline / layer cap / injected
  /// fault) and `patterns` ranks a partial candidate set; the reason is
  /// stats.degraded_reason.
  bool degraded = false;
};

}  // namespace rap::core
