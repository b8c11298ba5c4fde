#include "baselines/idice.h"

#include <algorithm>
#include <cmath>

#include "stats/entropy.h"
#include "stats/hypothesis.h"

namespace rap::baselines {

using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::ElemId;
using dataset::RowId;

namespace {

/// iDice operates on issue-report counts, not leaf labels: a customer
/// problem report stream, bucketed by attribute combination.  The KPI
/// analogue of "issue volume" is the dropped traffic f - v (clamped at
/// 0); the analogue of "total volume" is the forecast f.  Both are used
/// as pseudo-counts, which preserves iDice's count-based statistics and
/// its real-world blind spot: background deviations look like faint
/// issue reports everywhere.
struct VolumeStats {
  double drop = 0.0;   ///< issue volume under the combination
  double total = 0.0;  ///< forecast volume under the combination
};

VolumeStats volumesFor(const dataset::LeafTable& table,
                       const std::vector<RowId>& rows) {
  VolumeStats s;
  for (const auto id : rows) {
    s.drop += std::max(0.0, table.f(id) - table.v(id));
    s.total += table.f(id);
  }
  return s;
}

std::uint64_t pseudoCount(double volume) {
  return static_cast<std::uint64_t>(std::llround(std::max(0.0, volume)));
}

/// Isolation power: information gain (nats) of splitting the issue
/// distribution into {covered by ac, rest}, on pseudo-counts.
double isolationPower(const VolumeStats& inside, const VolumeStats& all) {
  const std::vector<stats::BranchCounts> branches{
      {pseudoCount(inside.drop), pseudoCount(inside.total)},
      {pseudoCount(all.drop - inside.drop),
       pseudoCount(all.total - inside.total)}};
  const double before =
      stats::datasetInfo(pseudoCount(all.drop), pseudoCount(all.total));
  const double after = stats::splitInfo(branches);
  return before - after;
}

}  // namespace

std::vector<core::ScoredPattern> idiceLocalize(const dataset::LeafTable& table,
                                               const IDiceConfig& config,
                                               std::int32_t k) {
  const auto& schema = table.schema();

  std::vector<RowId> all_rows(table.size());
  for (RowId id = 0; id < table.size(); ++id) all_rows[id] = id;
  const VolumeStats all = volumesFor(table, all_rows);
  if (all.drop <= 0.0) return {};

  const double min_impact = std::max(
      static_cast<double>(config.min_impact_abs),
      config.min_impact_ratio * all.drop);

  struct Candidate {
    AttributeCombination ac;
    double isolation = 0.0;
    double confidence = 0.0;  ///< inside drop rate
    double impact = 0.0;
  };
  std::vector<Candidate> accepted;

  // BFS frontier: combinations that may still be extended, each with the
  // rows it covers, ascending.  Extension is canonical — only attributes
  // with a larger id than the last concrete one — so each combination is
  // visited once.  A child's rows are its parent's bucketed by the
  // child's new attribute, which keeps them ascending.  Children that
  // cover no row are skipped: with no volume (pseudo-count 0) they can
  // never pass the change test, and neither can their descendants.
  struct Node {
    AttributeCombination ac;
    AttrId last = -1;  ///< last concrete attribute
    std::vector<RowId> rows;
  };
  std::vector<std::vector<RowId>> buckets;
  const auto expand = [&](const Node& parent, std::vector<Node>& out) {
    for (AttrId a = parent.last + 1; a < schema.attributeCount(); ++a) {
      buckets.assign(static_cast<std::size_t>(schema.cardinality(a)), {});
      for (const RowId id : parent.rows) {
        buckets[static_cast<std::size_t>(table.elem(id, a))].push_back(id);
      }
      for (ElemId e = 0; e < schema.cardinality(a); ++e) {
        auto& rows = buckets[static_cast<std::size_t>(e)];
        if (rows.empty()) continue;
        Node child{parent.ac, a, std::move(rows)};
        child.ac.setSlot(a, e);
        out.push_back(std::move(child));
      }
    }
  };

  const std::int32_t max_layer = config.max_layer > 0
                                     ? config.max_layer
                                     : schema.attributeCount();
  std::vector<Node> frontier;
  std::vector<Node> next;
  expand(Node{AttributeCombination(schema.attributeCount()), -1,
              std::move(all_rows)},
         frontier);
  for (std::int32_t layer = 1;
       layer <= max_layer && !frontier.empty(); ++layer) {
    next.clear();
    for (const Node& node : frontier) {
      const VolumeStats inside = volumesFor(table, node.rows);

      // Pruning 1 — impact: too little issue volume kills the subtree.
      if (inside.drop < min_impact) continue;

      // Pruning 2 — change detection: the issue proportion inside must
      // significantly exceed the outside proportion.
      const VolumeStats outside{all.drop - inside.drop,
                                all.total - inside.total};
      const double p_value = stats::twoProportionPValue(
          pseudoCount(inside.drop), pseudoCount(inside.total),
          pseudoCount(outside.drop),
          std::max<std::uint64_t>(1, pseudoCount(outside.total)));
      const double inside_rate =
          inside.total <= 0.0 ? 0.0 : inside.drop / inside.total;
      const double outside_rate =
          outside.total <= 0.0 ? 0.0 : outside.drop / outside.total;

      if (p_value < config.significance && inside_rate > outside_rate) {
        Candidate c;
        c.ac = node.ac;
        c.isolation = isolationPower(inside, all);
        c.confidence = inside_rate;
        c.impact = inside.drop;
        accepted.push_back(std::move(c));
      }

      if (layer < max_layer) expand(node, next);
    }
    frontier.swap(next);
  }

  // Prefer general — but only when the ancestor isolates at least as
  // well: a coarser combination that fails to separate the issue must not
  // suppress the sharper one it contains.
  std::vector<core::ScoredPattern> out;
  for (const auto& c : accepted) {
    const bool dominated = std::any_of(
        accepted.begin(), accepted.end(), [&c](const Candidate& other) {
          return other.ac.isAncestorOf(c.ac) &&
                 other.isolation >= c.isolation - 1e-12;
        });
    if (dominated) continue;
    core::ScoredPattern pattern;
    pattern.ac = c.ac;
    pattern.confidence = c.confidence;
    pattern.layer = c.ac.dim();
    pattern.score = c.isolation;
    out.push_back(std::move(pattern));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const core::ScoredPattern& a, const core::ScoredPattern& b) {
                     return a.score > b.score;
                   });
  if (k > 0 && static_cast<std::int32_t>(out.size()) > k) {
    out.resize(static_cast<std::size_t>(k));
  }
  return out;
}

}  // namespace rap::baselines
