#include "dataset/leaf_table.h"

#include <algorithm>
#include <numeric>

namespace rap::dataset {

LeafTable::LeafTable(Schema schema)
    : schema_(std::move(schema)),
      columns_(static_cast<std::size_t>(schema_.attributeCount())) {}

void LeafTable::addRow(LeafRow row) {
  addRow(row.ac.slots(), row.v, row.f, row.anomalous);
}

void LeafTable::addRow(AttributeCombination ac, double v, double f,
                       bool anomalous) {
  addRow(ac.slots(), v, f, anomalous);
}

void LeafTable::addRow(std::span<const ElemId> slots, double v, double f,
                       bool anomalous) {
  RAP_CHECK_MSG(slots.size() == columns_.size(),
                "row arity " << slots.size() << " vs schema "
                             << schema_.attributeCount());
  for (AttrId a = 0; a < schema_.attributeCount(); ++a) {
    const ElemId elem = slots[static_cast<std::size_t>(a)];
    RAP_CHECK_MSG(elem != kWildcard,
                  "row must be a most fine-grained combination");
    RAP_CHECK_MSG(elem >= 0 && elem < schema_.cardinality(a),
                  "element id out of range in slot " << a);
  }
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    columns_[a].push_back(slots[a]);
  }
  v_.push_back(v);
  f_.push_back(f);
  anomalous_.push_back(anomalous ? 1 : 0);
}

void LeafTable::reserve(std::size_t n) {
  for (auto& column : columns_) column.reserve(n);
  v_.reserve(n);
  f_.reserve(n);
  anomalous_.reserve(n);
}

bool LeafTable::rowMatches(RowId id, const AttributeCombination& ac) const {
  if (ac.attributeCount() != schema_.attributeCount()) return false;
  for (std::size_t a = 0; a < columns_.size(); ++a) {
    const ElemId want = ac.slots()[a];
    if (want != kWildcard && want != columns_[a][id]) return false;
  }
  return true;
}

AttributeCombination LeafTable::leaf(RowId id) const {
  RAP_CHECK(id < size());
  std::vector<ElemId> slots(columns_.size());
  for (std::size_t a = 0; a < columns_.size(); ++a) slots[a] = columns_[a][id];
  return AttributeCombination(std::move(slots));
}

LeafRow LeafTable::row(RowId id) const {
  return LeafRow{leaf(id), v_[id], f_[id], anomalous_[id] != 0};
}

std::uint32_t LeafTable::anomalousCount() const noexcept {
  std::uint32_t n = 0;
  for (const std::uint8_t flag : anomalous_) n += flag;
  return n;
}

double LeafTable::totalV() const noexcept {
  double sum = 0.0;
  for (const double v : v_) sum += v;
  return sum;
}

double LeafTable::totalF() const noexcept {
  double sum = 0.0;
  for (const double f : f_) sum += f;
  return sum;
}

std::size_t LeafTable::groupByInto(CuboidMask mask, GroupByScratch& scratch,
                                   std::vector<GroupAggregate>& out) const {
  // Member attributes + mixed-radix strides, into reused buffers; the
  // first member varies slowest, so ascending keys are lexicographic
  // element order.
  const std::uint64_t cells = cuboidSize(schema_, mask);
  scratch.attrs.clear();
  for (AttrId a = 0; a < schema_.attributeCount(); ++a) {
    if ((mask & (1u << a)) != 0) scratch.attrs.push_back(a);
  }
  const std::size_t m = scratch.attrs.size();
  scratch.strides.resize(m);
  std::uint64_t stride = 1;
  for (std::size_t i = m; i-- > 0;) {
    scratch.strides[i] = stride;
    stride *= static_cast<std::uint64_t>(schema_.cardinality(scratch.attrs[i]));
  }

  // Key sweep, one pass per member column; the first pass assigns
  // instead of accumulating, so the keys buffer needs no zero-fill.
  const std::size_t n = size();
  scratch.keys.resize(n);
  std::uint64_t* keys = scratch.keys.data();
  if (m == 0) std::fill(keys, keys + n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const ElemId* column =
        columns_[static_cast<std::size_t>(scratch.attrs[i])].data();
    const std::uint64_t s = scratch.strides[i];
    if (i == 0) {
      for (std::size_t r = 0; r < n; ++r) {
        keys[r] = s * static_cast<std::uint64_t>(column[r]);
      }
    } else {
      for (std::size_t r = 0; r < n; ++r) {
        keys[r] += s * static_cast<std::uint64_t>(column[r]);
      }
    }
  }

  const auto accumulate = [this](GroupCell& cell, std::size_t r) {
    cell.total += 1;
    cell.anomalous += anomalous_[r];
    cell.v_sum += v_[r];
    cell.f_sum += f_[r];
  };
  // Both paths visit each group's rows in row order, so the sums are
  // bit-identical whichever one runs.
  const bool dense = cells <= kDenseLimit;
  scratch.group_keys.clear();
  if (dense) {
    // Cell `key` accumulates its group.  The array is zero-filled only
    // when it grows; between calls every cell is zero (restored below),
    // so the scatter detects a group's first row by total == 0 and
    // records its key instead of sweeping all the cells afterwards.
    if (scratch.dense.size() < cells) {
      scratch.dense.resize(static_cast<std::size_t>(cells));
    }
    for (std::size_t r = 0; r < n; ++r) {
      GroupCell& cell = scratch.dense[static_cast<std::size_t>(keys[r])];
      if (cell.total == 0) scratch.group_keys.push_back(keys[r]);
      accumulate(cell, r);
    }
    std::sort(scratch.group_keys.begin(), scratch.group_keys.end());
  } else {
    // Too many cells for a dense array: sort the rows by (key, row) and
    // let cell j accumulate the j-th run of equal keys.
    if (scratch.dense.size() < n) scratch.dense.resize(n);
    scratch.order.resize(n);
    std::iota(scratch.order.begin(), scratch.order.end(), RowId{0});
    std::sort(scratch.order.begin(), scratch.order.end(),
              [keys](RowId a, RowId b) {
                return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
              });
    for (const RowId r : scratch.order) {
      if (scratch.group_keys.empty() || scratch.group_keys.back() != keys[r]) {
        scratch.group_keys.push_back(keys[r]);
      }
      accumulate(scratch.dense[scratch.group_keys.size() - 1], r);
    }
  }

  const std::size_t groups = scratch.group_keys.size();
  if (out.size() < groups) out.resize(groups);
  for (std::size_t j = 0; j < groups; ++j) {
    const std::uint64_t key = scratch.group_keys[j];
    GroupCell& cell = scratch.dense[dense ? static_cast<std::size_t>(key) : j];
    GroupAggregate& g = out[j];
    g.total = cell.total;
    g.anomalous = cell.anomalous;
    g.v_sum = cell.v_sum;
    g.f_sum = cell.f_sum;
    cell = GroupCell{};  // restore the all-zero invariant
    // Decode the mixed-radix key, reusing the slot storage of whatever
    // combination this output element held before (same-width acs are
    // rewritten in place; only a schema change reallocates).
    if (g.ac.attributeCount() != schema_.attributeCount()) {
      g.ac = AttributeCombination(schema_.attributeCount());
    }
    std::uint64_t rest = key;
    std::size_t i = 0;
    for (AttrId a = 0; a < schema_.attributeCount(); ++a) {
      if (i < m && scratch.attrs[i] == a) {
        g.ac.setSlot(a, static_cast<ElemId>(rest / scratch.strides[i]));
        rest %= scratch.strides[i];
        ++i;
      } else {
        g.ac.setSlot(a, kWildcard);
      }
    }
  }
  return groups;
}

std::vector<GroupAggregate> LeafTable::groupBy(CuboidMask mask) const {
  GroupByScratch scratch;
  std::vector<GroupAggregate> out;
  groupByInto(mask, scratch, out);  // fresh `out` grows to exactly fit
  return out;
}

std::vector<GroupWithRows> LeafTable::groupByWithRows(CuboidMask mask) const {
  GroupByScratch scratch;
  std::vector<GroupAggregate> aggs;
  const std::size_t groups = groupByInto(mask, scratch, aggs);
  std::vector<GroupWithRows> out(groups);
  for (std::size_t j = 0; j < groups; ++j) out[j].agg = std::move(aggs[j]);
  // Row r belongs to the group of the key the sweep gave it.
  const auto& keys = scratch.group_keys;
  for (RowId r = 0; r < size(); ++r) {
    const auto j = std::lower_bound(keys.begin(), keys.end(), scratch.keys[r]) -
                   keys.begin();
    out[static_cast<std::size_t>(j)].rows.push_back(r);
  }
  return out;
}

std::vector<GroupWithRows> LeafTable::groupByWithRows(
    CuboidMask mask, const std::vector<RowId>& subset) const {
  // The subset as a table of its own, row i holding subset[i].
  LeafTable part(schema_);
  part.reserve(subset.size());
  std::vector<ElemId> slots(columns_.size());
  for (const RowId id : subset) {
    RAP_CHECK(id < size());
    for (std::size_t a = 0; a < slots.size(); ++a) slots[a] = columns_[a][id];
    part.addRow(slots, v_[id], f_[id], anomalous_[id] != 0);
  }
  auto groups = part.groupByWithRows(mask);
  for (auto& g : groups) {
    for (RowId& r : g.rows) r = subset[r];
  }
  return groups;
}

GroupAggregate LeafTable::aggregateFor(const AttributeCombination& ac) const {
  GroupAggregate g;
  g.ac = ac;
  for (RowId id = 0; id < size(); ++id) {
    if (!rowMatches(id, ac)) continue;
    g.total += 1;
    g.anomalous += anomalous_[id];
    g.v_sum += v_[id];
    g.f_sum += f_[id];
  }
  return g;
}

bool LeafTable::coversAllAnomalies(
    const std::vector<AttributeCombination>& acs) const {
  for (RowId id = 0; id < size(); ++id) {
    if (anomalous_[id] == 0) continue;
    const bool covered =
        std::any_of(acs.begin(), acs.end(), [this, id](const auto& ac) {
          return rowMatches(id, ac);
        });
    if (!covered) return false;
  }
  return true;
}

std::vector<RowId> LeafTable::anomalousRows() const {
  std::vector<RowId> out;
  for (RowId id = 0; id < size(); ++id) {
    if (anomalous_[id] != 0) out.push_back(id);
  }
  return out;
}

}  // namespace rap::dataset
