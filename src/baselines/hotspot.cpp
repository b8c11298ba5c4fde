#include "baselines/hotspot.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "dataset/cuboid.h"
#include "util/rng.h"

namespace rap::baselines {

using dataset::AttributeCombination;
using dataset::CuboidMask;
using dataset::RowId;

namespace {

/// Candidate element of one cuboid with its covered rows cached.
struct Element {
  AttributeCombination ac;
  std::vector<RowId> rows;
  double singleton_ps = 0.0;
};

/// Ripple-effect potential score of a union of elements (same reduction
/// as the Squeeze baseline's GPS; see squeeze.cpp).
double potentialScore(const dataset::LeafTable& table,
                      const std::vector<RowId>& covered, double total_dev) {
  if (total_dev <= 0.0 || covered.empty()) return 0.0;
  double sel_dev = 0.0;
  double v_sum = 0.0;
  double f_sum = 0.0;
  for (const RowId id : covered) {
    sel_dev += std::fabs(table.v(id) - table.f(id));
    v_sum += table.v(id);
    f_sum += table.f(id);
  }
  if (f_sum <= 0.0) return 0.0;
  const double ratio = v_sum / f_sum;
  double sel_ripple = 0.0;
  for (const RowId id : covered) {
    sel_ripple += std::fabs(table.v(id) - table.f(id) * ratio);
  }
  return (sel_dev - sel_ripple) / total_dev;
}

std::vector<RowId> unionRows(const std::vector<Element>& elements,
                             const std::vector<std::int32_t>& selected) {
  std::vector<RowId> covered;
  for (const auto idx : selected) {
    const auto& rows = elements[static_cast<std::size_t>(idx)].rows;
    covered.insert(covered.end(), rows.begin(), rows.end());
  }
  std::sort(covered.begin(), covered.end());
  covered.erase(std::unique(covered.begin(), covered.end()), covered.end());
  return covered;
}

/// One MCTS tree node: a set of selected element indices (sorted).
struct Node {
  std::vector<std::int32_t> selected;
  double best_q = 0.0;     ///< max descendant score (HotSpot backs up max)
  std::int32_t visits = 0;
  std::map<std::int32_t, std::unique_ptr<Node>> children;  // by element idx
};

struct MctsContext {
  const dataset::LeafTable* table;
  const std::vector<Element>* elements;
  double total_dev;
  const HotSpotConfig* config;
  util::Rng* rng;
  double best_ps = 0.0;
  std::vector<std::int32_t> best_selection;
};

double evaluate(MctsContext& ctx, const std::vector<std::int32_t>& selected) {
  const double ps = potentialScore(
      *ctx.table, unionRows(*ctx.elements, selected), ctx.total_dev);
  if (ps > ctx.best_ps) {
    ctx.best_ps = ps;
    ctx.best_selection = selected;
  }
  return ps;
}

/// Random completion of a state up to max_set_size; returns the best
/// score seen along the rollout.
double rollout(MctsContext& ctx, std::vector<std::int32_t> selected) {
  double best = evaluate(ctx, selected);
  const auto n = static_cast<std::int32_t>(ctx.elements->size());
  while (static_cast<std::int32_t>(selected.size()) <
         ctx.config->max_set_size) {
    // Draw an unused element uniformly.
    std::vector<std::int32_t> unused;
    for (std::int32_t i = 0; i < n; ++i) {
      if (std::find(selected.begin(), selected.end(), i) == selected.end()) {
        unused.push_back(i);
      }
    }
    if (unused.empty()) break;
    selected.push_back(unused[static_cast<std::size_t>(
        ctx.rng->uniformInt(0, static_cast<std::int64_t>(unused.size()) - 1))]);
    std::sort(selected.begin(), selected.end());
    best = std::max(best, evaluate(ctx, selected));
  }
  return best;
}

double mctsIterate(MctsContext& ctx, Node& node) {
  node.visits += 1;
  const auto n = static_cast<std::int32_t>(ctx.elements->size());
  if (static_cast<std::int32_t>(node.selected.size()) >=
      ctx.config->max_set_size) {
    const double q = evaluate(ctx, node.selected);
    node.best_q = std::max(node.best_q, q);
    return q;
  }

  // Unexpanded action?  Expand the first unused element not yet a child.
  for (std::int32_t i = 0; i < n; ++i) {
    if (node.children.contains(i)) continue;
    if (std::find(node.selected.begin(), node.selected.end(), i) !=
        node.selected.end()) {
      continue;
    }
    auto child = std::make_unique<Node>();
    child->selected = node.selected;
    child->selected.push_back(i);
    std::sort(child->selected.begin(), child->selected.end());
    const double q = rollout(ctx, child->selected);
    child->best_q = q;
    child->visits = 1;
    node.children.emplace(i, std::move(child));
    node.best_q = std::max(node.best_q, q);
    return q;
  }

  // Fully expanded: UCB1 over children (exploit max-backup Q).
  Node* best_child = nullptr;
  double best_ucb = -1.0;
  for (auto& [idx, child] : node.children) {
    const double exploit = child->best_q;
    const double explore =
        ctx.config->ucb_exploration *
        std::sqrt(std::log(static_cast<double>(node.visits) + 1.0) /
                  (static_cast<double>(child->visits) + 1e-9));
    const double ucb = exploit + explore;
    if (ucb > best_ucb) {
      best_ucb = ucb;
      best_child = child.get();
    }
  }
  if (best_child == nullptr) {
    const double q = evaluate(ctx, node.selected);
    node.best_q = std::max(node.best_q, q);
    return q;
  }
  const double q = mctsIterate(ctx, *best_child);
  node.best_q = std::max(node.best_q, q);
  return q;
}

}  // namespace

std::vector<core::ScoredPattern> hotspotLocalize(const dataset::LeafTable& table,
                                                 const HotSpotConfig& config,
                                                 std::int32_t k) {
  if (table.empty() || table.anomalousCount() == 0) return {};
  util::Rng rng(config.seed);

  double total_dev = 0.0;
  for (RowId id = 0; id < table.size(); ++id) {
    total_dev += std::fabs(table.v(id) - table.f(id));
  }
  if (total_dev <= 0.0) return {};

  double best_ps = 0.0;
  std::vector<AttributeCombination> best_set;
  std::int32_t best_layer = 0;

  const CuboidMask all_mask = dataset::allAttributesMask(table.schema());
  for (const CuboidMask mask : dataset::allCuboidsByLayer(all_mask)) {
    // Candidate elements: groups of the cuboid, strongest singletons
    // first (hierarchical pruning keeps only the top max_elements).
    std::vector<Element> elements;
    for (const auto& group : table.groupByWithRows(mask)) {
      if (group.agg.anomalous == 0) continue;
      Element e;
      e.ac = group.agg.ac;
      e.rows = group.rows;
      e.singleton_ps = potentialScore(table, e.rows, total_dev);
      elements.push_back(std::move(e));
    }
    std::stable_sort(elements.begin(), elements.end(),
                     [](const Element& a, const Element& b) {
                       return a.singleton_ps > b.singleton_ps;
                     });
    if (static_cast<std::int32_t>(elements.size()) > config.max_elements) {
      elements.resize(static_cast<std::size_t>(config.max_elements));
    }
    if (elements.empty()) continue;

    MctsContext ctx{&table, &elements, total_dev, &config, &rng, 0.0, {}};
    Node root;
    for (std::int32_t it = 0; it < config.mcts_iterations; ++it) {
      mctsIterate(ctx, root);
      if (ctx.best_ps >= config.ps_stop_threshold) break;
    }

    if (ctx.best_ps > best_ps) {
      best_ps = ctx.best_ps;
      best_layer = dataset::cuboidLayer(mask);
      best_set.clear();
      for (const auto idx : ctx.best_selection) {
        best_set.push_back(elements[static_cast<std::size_t>(idx)].ac);
      }
    }
    if (best_ps >= config.ps_stop_threshold) break;
  }

  std::vector<core::ScoredPattern> out;
  for (const auto& ac : best_set) {
    core::ScoredPattern pattern;
    pattern.ac = ac;
    pattern.layer = best_layer;
    pattern.confidence = table.aggregateFor(ac).confidence();
    pattern.score = best_ps;
    out.push_back(std::move(pattern));
  }
  if (k > 0 && static_cast<std::int32_t>(out.size()) > k) {
    out.resize(static_cast<std::size_t>(k));
  }
  return out;
}

}  // namespace rap::baselines
