#include "baselines/fp_rap.h"

#include <algorithm>
#include <cmath>

#include "dataset/index.h"
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

  // Rule confidence over the full table, via the inverted index.
  const dataset::InvertedIndex index(table);
  struct Candidate {
    AttributeCombination ac;
    double confidence = 0.0;
    double support_ratio = 0.0;  // over anomalous leaves
    std::int32_t layer = 0;
  };
  std::vector<Candidate> candidates;
  for (const auto& itemset : itemsets) {
    AttributeCombination ac(schema.attributeCount());
    for (const auto item : itemset.items) {
      const auto [attr, elem] = codec.decode(item);
      ac.setSlot(attr, elem);
    }
    const auto agg = index.aggregateFor(ac);
    if (agg.total == 0) continue;
    const double confidence = agg.confidence();
    if (confidence < config.min_confidence) continue;
    Candidate c;
    c.layer = ac.dim();
    c.ac = std::move(ac);
    c.confidence = confidence;
    c.support_ratio = static_cast<double>(itemset.support) /
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
