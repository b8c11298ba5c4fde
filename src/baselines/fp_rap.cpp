#include "baselines/fp_rap.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dataset/cuboid.h"
#include "mining/fpgrowth.h"

namespace rap::baselines {

using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::ElemId;

namespace {

/// Items encode (attribute, element) pairs with per-attribute offsets.
class ItemCodec {
 public:
  explicit ItemCodec(const dataset::Schema& schema) {
    offsets_.resize(static_cast<std::size_t>(schema.attributeCount()) + 1, 0);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      offsets_[static_cast<std::size_t>(a) + 1] =
          offsets_[static_cast<std::size_t>(a)] + schema.cardinality(a);
    }
  }

  mining::Item encode(AttrId attr, ElemId elem) const {
    return offsets_[static_cast<std::size_t>(attr)] + elem;
  }

  /// Returns (attr, elem) of an item.
  std::pair<AttrId, ElemId> decode(mining::Item item) const {
    AttrId attr = 0;
    while (offsets_[static_cast<std::size_t>(attr) + 1] <= item) ++attr;
    return {attr, item - offsets_[static_cast<std::size_t>(attr)]};
  }

 private:
  std::vector<mining::Item> offsets_;
};

}  // namespace

std::vector<core::ScoredPattern> fpGrowthLocalize(
    const dataset::LeafTable& table, const FpRapConfig& config,
    std::int32_t k) {
  const auto& schema = table.schema();
  const ItemCodec codec(schema);

  // Transactions = anomalous leaves.
  std::vector<mining::Transaction> transactions;
  for (const dataset::RowId id : table.anomalousRows()) {
    mining::Transaction txn;
    txn.reserve(static_cast<std::size_t>(schema.attributeCount()));
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      txn.push_back(codec.encode(a, table.elem(id, a)));
    }
    transactions.push_back(std::move(txn));
  }
  if (transactions.empty()) return {};

  mining::FpGrowthOptions options;
  options.min_support = std::max<std::uint64_t>(
      config.min_support_abs,
      static_cast<std::uint64_t>(config.min_support_ratio *
                                 static_cast<double>(transactions.size())));
  options.max_itemset_size = schema.attributeCount();
  const auto itemsets =
      config.engine == RuleMiningEngine::kApriori
          ? mining::mineFrequentItemsetsApriori(transactions, options)
          : mining::mineFrequentItemsets(transactions, options);

  // Rule confidence over the full table: one keyed group-by per cuboid
  // the itemsets touch, each itemset's projection binary-searched in its
  // cuboid's groups.  An itemset no leaf supports keeps total == 0.
  struct Probe {
    AttributeCombination ac;
    dataset::CuboidMask mask = 0;
    std::uint64_t key = 0;
    dataset::KeyedGroup counts;
  };
  std::vector<Probe> probes(itemsets.size());
  std::vector<ElemId> slots(static_cast<std::size_t>(schema.attributeCount()));
  for (std::size_t i = 0; i < itemsets.size(); ++i) {
    Probe& probe = probes[i];
    probe.ac = AttributeCombination(schema.attributeCount());
    std::fill(slots.begin(), slots.end(), 0);
    for (const auto item : itemsets[i].items) {
      const auto [attr, elem] = codec.decode(item);
      probe.ac.setSlot(attr, elem);
      slots[static_cast<std::size_t>(attr)] = elem;
    }
    probe.mask = probe.ac.cuboidMask();
    probe.key = dataset::KeyProjection(schema, probe.mask)(schema.pack(slots));
  }
  std::vector<std::size_t> by_mask(probes.size());
  std::iota(by_mask.begin(), by_mask.end(), std::size_t{0});
  std::sort(by_mask.begin(), by_mask.end(), [&probes](auto a, auto b) {
    return probes[a].mask < probes[b].mask;
  });
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> groups;
  std::size_t group_count = 0;
  for (std::size_t i = 0; i < by_mask.size(); ++i) {
    Probe& probe = probes[by_mask[i]];
    if (i == 0 || probe.mask != probes[by_mask[i - 1]].mask) {
      group_count = table.groupByInto(probe.mask, scratch, groups);
    }
    const auto end = groups.begin() + static_cast<std::ptrdiff_t>(group_count);
    const auto it = std::lower_bound(
        groups.begin(), end, probe.key,
        [](const dataset::KeyedGroup& g, std::uint64_t key) {
          return g.key < key;
        });
    if (it != end && it->key == probe.key) probe.counts = *it;
  }

  struct Candidate {
    AttributeCombination ac;
    double confidence = 0.0;
    double support_ratio = 0.0;  // over anomalous leaves
    std::int32_t layer = 0;
  };
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    if (probes[i].counts.total == 0) continue;
    const double confidence = probes[i].counts.confidence();
    if (confidence < config.min_confidence) continue;
    Candidate c;
    c.layer = probes[i].ac.dim();
    c.ac = std::move(probes[i].ac);
    c.confidence = confidence;
    c.support_ratio = static_cast<double>(itemsets[i].support) /
                      static_cast<double>(transactions.size());
    candidates.push_back(std::move(c));
  }

  // Generalization filter: drop candidates with a passing proper
  // ancestor.
  std::vector<core::ScoredPattern> out;
  for (const auto& c : candidates) {
    const bool has_ancestor =
        std::any_of(candidates.begin(), candidates.end(),
                    [&c](const Candidate& other) {
                      return other.ac.isAncestorOf(c.ac);
                    });
    if (has_ancestor) continue;
    core::ScoredPattern pattern;
    pattern.ac = c.ac;
    pattern.confidence = c.confidence;
    pattern.layer = c.layer;
    // Rank rules by how much of the anomaly they cover, weighted by rule
    // confidence — the standard support x confidence ordering.
    pattern.score = c.support_ratio * c.confidence;
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
