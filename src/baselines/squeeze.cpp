#include "baselines/squeeze.h"

#include <algorithm>
#include <cmath>

#include "dataset/cuboid.h"
#include "stats/histogram.h"

namespace rap::baselines {

using dataset::AttributeCombination;
using dataset::CuboidMask;
using dataset::RowId;

namespace {

double deviationScore(double v, double f) noexcept {
  const double denom = f + v;
  if (denom <= 0.0) return 0.0;
  return 2.0 * (f - v) / denom;
}

struct Selection {
  std::vector<AttributeCombination> acs;
  double gps = -1.0;
  std::int32_t layer = 0;
};

/// GPS of a selection whose covered rows and aggregate sums are known.
/// `total_dev` = sum over ALL table rows of |v - f|.
double gpsOf(const dataset::LeafTable& table,
             const std::vector<RowId>& covered_rows, double total_dev) {
  if (total_dev <= 0.0) return 0.0;
  double sel_dev = 0.0;
  double v_sum = 0.0;
  double f_sum = 0.0;
  for (const RowId id : covered_rows) {
    sel_dev += std::fabs(table.v(id) - table.f(id));
    v_sum += table.v(id);
    f_sum += table.f(id);
  }
  if (f_sum <= 0.0) return 0.0;
  // Ripple effect: if the selection were the root cause, every covered
  // leaf's expectation shrinks by the selection-wide factor V_S / F_S.
  const double ratio = v_sum / f_sum;
  double sel_ripple = 0.0;
  for (const RowId id : covered_rows) {
    sel_ripple += std::fabs(table.v(id) - table.f(id) * ratio);
  }
  return (sel_dev - sel_ripple) / total_dev;
}

}  // namespace

std::vector<core::ScoredPattern> squeezeLocalize(
    const dataset::LeafTable& table, const SqueezeConfig& config,
    std::int32_t k) {
  if (table.empty()) return {};

  // 1. Deviation scores; collect the non-trivially-deviating rows.
  std::vector<double> scores(table.size(), 0.0);
  std::vector<RowId> deviating;
  for (RowId id = 0; id < table.size(); ++id) {
    scores[id] = deviationScore(table.v(id), table.f(id));
    if (std::fabs(scores[id]) >= config.min_deviation) {
      deviating.push_back(id);
    }
  }
  if (deviating.empty()) return {};

  // 2. Density clustering over the deviation axis.
  stats::Histogram hist(-2.0, 2.0, config.histogram_bins);
  for (const RowId id : deviating) hist.add(scores[id]);
  const auto clusters =
      stats::densityClusters(hist, config.smooth_radius, config.valley_ratio);

  double total_dev = 0.0;
  for (RowId id = 0; id < table.size(); ++id) {
    total_dev += std::fabs(table.v(id) - table.f(id));
  }

  const CuboidMask all_mask = dataset::allAttributesMask(table.schema());

  // Table-wide groups per cuboid, computed once and shared by every
  // cluster (descent-score denominators and covered-row lookups), in
  // ascending combination order like every group-by.
  const auto cuboids = dataset::allCuboidsByLayer(all_mask);
  std::vector<std::vector<dataset::GroupWithRows>> full_groups;
  for (const CuboidMask mask : cuboids) {
    full_groups.push_back(table.groupByWithRows(mask));
  }

  std::vector<core::ScoredPattern> out;
  for (const auto& cluster : clusters) {
    if (cluster.weight < config.min_cluster_size) continue;
    // Rows of this cluster.
    std::vector<RowId> cluster_rows;
    for (const RowId id : deviating) {
      if (scores[id] >= cluster.lo && scores[id] <= cluster.hi) {
        cluster_rows.push_back(id);
      }
    }
    if (cluster_rows.size() < config.min_cluster_size) continue;

    // 3. Search every cuboid for the best selection.
    Selection best;
    for (std::size_t c = 0; c < cuboids.size(); ++c) {
      const CuboidMask mask = cuboids[c];
      auto groups = table.groupByWithRows(mask, cluster_rows);

      // Descent score: fraction of the group's table-wide leaves inside
      // the cluster.  Groups fully engulfed by the cluster come first.
      struct Ranked {
        const dataset::GroupWithRows* group;
        const std::vector<RowId>* table_rows;
        double descent;
      };
      std::vector<Ranked> ranked;
      ranked.reserve(groups.size());
      for (const auto& g : groups) {
        // A cluster's groups are a subset of the table-wide ones.
        const auto& table_wide =
            std::lower_bound(full_groups[c].begin(), full_groups[c].end(),
                             g.agg.ac,
                             [](const dataset::GroupWithRows& wide,
                                const AttributeCombination& ac) {
                               return wide.agg.ac < ac;
                             })
                ->rows;
        const double descent =
            table_wide.empty()
                ? 0.0
                : static_cast<double>(g.rows.size()) /
                      static_cast<double>(table_wide.size());
        ranked.push_back({&g, &table_wide, descent});
      }
      std::stable_sort(ranked.begin(), ranked.end(),
                       [](const Ranked& a, const Ranked& b) {
                         return a.descent > b.descent;
                       });
      if (static_cast<std::int32_t>(ranked.size()) >
          config.max_groups_per_cuboid) {
        ranked.resize(static_cast<std::size_t>(config.max_groups_per_cuboid));
      }

      // Greedy growth: extend the selection while GPS improves.  Groups
      // of one cuboid are disjoint, so the union needs no deduplication.
      std::vector<AttributeCombination> acs;
      std::vector<RowId> covered;
      double best_gps_here = -1.0;
      std::size_t best_len = 0;
      for (const auto& r : ranked) {
        acs.push_back(r.group->agg.ac);
        covered.insert(covered.end(), r.table_rows->begin(),
                       r.table_rows->end());
        const double gps = gpsOf(table, covered, total_dev);
        if (gps > best_gps_here) {
          best_gps_here = gps;
          best_len = acs.size();
        }
      }
      // Prefer the more general, more succinct selection on quasi-ties:
      // a coarser cuboid explaining the same rows yields the same GPS up
      // to float summation order, and ISSRE'19 breaks such ties toward
      // fewer, coarser root causes.
      constexpr double kTie = 1e-9;
      const auto layer = dataset::cuboidLayer(mask);
      const bool strictly_better = best_gps_here > best.gps + kTie;
      const bool tie_but_simpler =
          best_gps_here > best.gps - kTie &&
          (layer < best.layer ||
           (layer == best.layer && best_len < best.acs.size()));
      if (strictly_better || tie_but_simpler) {
        best.gps = best_gps_here;
        best.layer = layer;
        best.acs.assign(acs.begin(),
                        acs.begin() + static_cast<std::ptrdiff_t>(best_len));
      }
    }

    // 4. Emit the cluster's winning selection.
    for (const auto& ac : best.acs) {
      core::ScoredPattern pattern;
      pattern.ac = ac;
      pattern.layer = best.layer;
      pattern.confidence = table.aggregateFor(ac).confidence();
      pattern.score = best.gps;
      out.push_back(std::move(pattern));
    }
  }

  // Deduplicate across clusters, keep the best score per pattern.
  std::stable_sort(out.begin(), out.end(),
                   [](const core::ScoredPattern& a, const core::ScoredPattern& b) {
                     return a.score > b.score;
                   });
  std::vector<core::ScoredPattern> deduped;
  for (auto& pattern : out) {
    const bool seen = std::any_of(
        deduped.begin(), deduped.end(), [&pattern](const core::ScoredPattern& p) {
          return p.ac == pattern.ac;
        });
    if (!seen) deduped.push_back(std::move(pattern));
  }
  if (k > 0 && static_cast<std::int32_t>(deduped.size()) > k) {
    deduped.resize(static_cast<std::size_t>(k));
  }
  return deduped;
}

}  // namespace rap::baselines
