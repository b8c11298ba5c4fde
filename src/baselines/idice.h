// iDice baseline (Lin et al., ICSE'16) — §V-C.2 of the RAPMiner paper.
//
// iDice mines "effective combinations" of emerging issues with a BFS over
// the attribute-combination lattice and three prunings.  Crucially,
// iDice never sees leaf-level anomaly verdicts: it operates on issue
// REPORT COUNTS.  The KPI analogue used here is the dropped traffic
// volume max(0, f - v) as issue volume and the forecast f as total
// volume, fed into the original count-based statistics as pseudo-counts:
//   * impact-based pruning — combinations with too little issue volume
//     are discarded together with their subtree;
//   * change-detection based pruning — the combination's issue
//     proportion must significantly exceed the outside proportion
//     (two-proportion z-test, standing in for the paper's time-series
//     change detection, which needs report streams we do not have);
//   * isolation-power ranking — information gain of the partition
//     {covered by ac, not covered} over the issue distribution.
// Because background leaves also deviate a little (RAPMD gives normal
// leaves Dev up to 0.09), faint issue volume exists everywhere — which
// reproduces iDice's real-world weakness on continuous KPIs.
//
// The BFS evaluates each combination individually, as the original
// does, but carries every frontier combination's covered rows down the
// lattice: a child's rows are its parent's bucketed by one attribute, so
// no combination is ever looked up from scratch.  That makes this iDice
// faster than the paper's Fig. 9 reports (EXPERIMENTS.md records the
// deviation).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "dataset/leaf_table.h"

namespace rap::baselines {

struct IDiceConfig {
  /// Minimum issue volume a combination must cover (absolute floor and
  /// fraction of the table's total dropped volume).
  std::uint64_t min_impact_abs = 2;
  double min_impact_ratio = 0.02;
  /// Significance level of the change-detection test.
  double significance = 0.01;
  /// Stop expanding beyond this layer (0 = all layers).
  std::int32_t max_layer = 0;
};

std::vector<core::ScoredPattern> idiceLocalize(const dataset::LeafTable& table,
                                               const IDiceConfig& config,
                                               std::int32_t k);

}  // namespace rap::baselines
