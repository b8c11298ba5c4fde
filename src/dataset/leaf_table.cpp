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

LeafTable::Emit LeafTable::aggregate(CuboidMask mask, GroupByScratch& scratch,
                                     std::uint64_t& cells) const {
  // Member attributes + mixed-radix strides, into reused buffers; the
  // first member varies slowest, so ascending keys are lexicographic
  // element order.
  cells = cuboidSize(schema_, mask);
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

  if (cells > kDenseLimit) {
    // Too many cells for a dense array: sort the rows by (key, row).
    scratch.order.resize(n);
    std::iota(scratch.order.begin(), scratch.order.end(), RowId{0});
    std::sort(scratch.order.begin(), scratch.order.end(),
              [keys](RowId a, RowId b) {
                return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
              });
    return Emit::kSortedRows;
  }

  // Cell `key` accumulates its group.  The array is zero-filled only
  // when it grows; between calls every cell is zero (restored as the
  // groups are emitted), so the scatter detects a group's first row by
  // total == 0.
  scratch.group_keys.clear();
  if (scratch.dense.size() < cells) {
    scratch.dense.resize(static_cast<std::size_t>(cells));
  }
  GroupCell* dense = scratch.dense.data();
  for (std::size_t r = 0; r < n; ++r) {
    GroupCell& cell = dense[keys[r]];
    if (cell.total == 0) {
      scratch.group_keys.push_back(keys[r]);
      cell.first_row = static_cast<RowId>(r);
    }
    cell.total += 1;
    cell.anomalous += anomalous_[r];
  }
  // The groups fill at least a quarter of the cells: walking the cells
  // yields the keys in ascending order, cheaper than sorting.  Sparse
  // cuboid: sort the touched keys and visit only those cells.
  if (cells <= 4 * static_cast<std::uint64_t>(scratch.group_keys.size())) {
    return Emit::kCellWalk;
  }
  std::sort(scratch.group_keys.begin(), scratch.group_keys.end());
  return Emit::kTouchedKeys;
}

std::size_t LeafTable::groupByInto(CuboidMask mask, GroupByScratch& scratch,
                                   std::vector<KeyedGroup>& out) const {
  std::size_t groups = 0;
  forEachGroup(mask, scratch, [&out, &groups](const KeyedGroup& g) {
    if (out.size() <= groups) out.resize(groups + 1);
    out[groups++] = g;
  });
  return groups;
}

std::vector<GroupAggregate> LeafTable::decodedGroups(
    CuboidMask mask, std::vector<std::vector<RowId>>* rows) const {
  GroupByScratch scratch;
  std::vector<KeyedGroup> groups;
  groups.resize(groupByInto(mask, scratch, groups));
  std::vector<GroupAggregate> out(groups.size());
  for (std::size_t j = 0; j < groups.size(); ++j) {
    out[j].ac = combinationFromKey(schema_, mask, groups[j].key);
    out[j].total = groups[j].total;
    out[j].anomalous = groups[j].anomalous;
  }
  if (rows != nullptr) {
    rows->assign(groups.size(), {});
    for (std::size_t j = 0; j < groups.size(); ++j) {
      (*rows)[j].reserve(groups[j].total);
    }
  }
  // Row r belongs to the group of the key the sweep gave it: looked up
  // in a key-indexed array when the cuboid is small enough for the dense
  // path, by binary search otherwise.  Visiting the rows in order sums
  // each group's KPIs in row order.
  const std::uint64_t cells = cuboidSize(schema_, mask);
  std::vector<std::uint32_t> index(cells <= kDenseLimit ? cells : 0);
  for (std::size_t j = 0; j < groups.size() && !index.empty(); ++j) {
    index[groups[j].key] = static_cast<std::uint32_t>(j);
  }
  for (RowId r = 0; r < size(); ++r) {
    const std::uint64_t key = scratch.keys[r];
    const std::size_t j =
        !index.empty()
            ? index[key]
            : static_cast<std::size_t>(
                  std::lower_bound(groups.begin(), groups.end(), key,
                                   [](const KeyedGroup& g, std::uint64_t k) {
                                     return g.key < k;
                                   }) -
                  groups.begin());
    out[j].v_sum += v_[r];
    out[j].f_sum += f_[r];
    if (rows != nullptr) (*rows)[j].push_back(r);
  }
  return out;
}

std::vector<GroupAggregate> LeafTable::groupBy(CuboidMask mask) const {
  return decodedGroups(mask, nullptr);
}

std::vector<GroupWithRows> LeafTable::groupByWithRows(CuboidMask mask) const {
  std::vector<std::vector<RowId>> rows;
  std::vector<GroupAggregate> aggs = decodedGroups(mask, &rows);
  std::vector<GroupWithRows> out(aggs.size());
  for (std::size_t j = 0; j < aggs.size(); ++j) {
    out[j].agg = std::move(aggs[j]);
    out[j].rows = std::move(rows[j]);
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
