#include "dataset/index.h"

#include <algorithm>

namespace rap::dataset {

InvertedIndex::InvertedIndex(const LeafTable& table) : table_(&table) {
  const Schema& schema = table.schema();
  postings_.resize(static_cast<std::size_t>(schema.attributeCount()));
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    postings_[static_cast<std::size_t>(a)].resize(
        static_cast<std::size_t>(schema.cardinality(a)));
  }
  for (RowId id = 0; id < table.size(); ++id) {
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      postings_[static_cast<std::size_t>(a)]
               [static_cast<std::size_t>(table.elem(id, a))]
                   .push_back(id);
    }
  }
}

const std::vector<RowId>& InvertedIndex::posting(AttrId attr,
                                                 ElemId elem) const {
  RAP_CHECK(attr >= 0 &&
            attr < static_cast<AttrId>(postings_.size()));
  const auto& per_attr = postings_[static_cast<std::size_t>(attr)];
  RAP_CHECK(elem >= 0 && elem < static_cast<ElemId>(per_attr.size()));
  return per_attr[static_cast<std::size_t>(elem)];
}

std::vector<RowId> InvertedIndex::rowsMatching(
    const AttributeCombination& ac) const {
  // Gather the postings of all concrete slots, smallest first, and
  // intersect progressively.
  std::vector<const std::vector<RowId>*> lists;
  for (AttrId a = 0; a < ac.attributeCount(); ++a) {
    if (!ac.isWildcard(a)) lists.push_back(&posting(a, ac.slot(a)));
  }
  if (lists.empty()) {
    std::vector<RowId> all(table_->size());
    for (RowId id = 0; id < table_->size(); ++id) all[id] = id;
    return all;
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto* a, const auto* b) { return a->size() < b->size(); });
  std::vector<RowId> result = *lists.front();
  std::vector<RowId> next;
  for (std::size_t i = 1; i < lists.size() && !result.empty(); ++i) {
    next.clear();
    std::set_intersection(result.begin(), result.end(), lists[i]->begin(),
                          lists[i]->end(), std::back_inserter(next));
    result.swap(next);
  }
  return result;
}

GroupAggregate InvertedIndex::aggregateFor(
    const AttributeCombination& ac) const {
  GroupAggregate g;
  g.ac = ac;
  for (const RowId id : rowsMatching(ac)) {
    g.total += 1;
    g.anomalous += table_->isAnomalous(id) ? 1 : 0;
    g.v_sum += table_->v(id);
    g.f_sum += table_->f(id);
  }
  return g;
}

}  // namespace rap::dataset
