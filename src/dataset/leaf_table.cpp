#include "dataset/leaf_table.h"

#include <algorithm>
#include <numeric>

namespace rap::dataset {

LeafTable::LeafTable(Schema schema) : schema_(std::move(schema)) {}

void LeafTable::addRow(LeafRow row) {
  addRow(row.ac.slots(), row.v, row.f, row.anomalous);
}

void LeafTable::addRow(AttributeCombination ac, double v, double f,
                       bool anomalous) {
  addRow(ac.slots(), v, f, anomalous);
}

void LeafTable::addRow(std::span<const ElemId> slots, double v, double f,
                       bool anomalous) {
  RAP_CHECK_MSG(slots.size() ==
                    static_cast<std::size_t>(schema_.attributeCount()),
                "row arity " << slots.size() << " vs schema "
                             << schema_.attributeCount());
  // The limits come from the schema's cached cardinalities; one
  // unsigned compare rejects a negative id and one past the dictionary.
  // A slot must be checked before it is packed: an out-of-range id would
  // spill into its neighbours' fields.
  const std::span<const std::int32_t> limits = schema_.cardinalities();
  for (std::size_t a = 0; a < slots.size(); ++a) {
    const ElemId elem = slots[a];
    RAP_CHECK_MSG(elem != kWildcard,
                  "row must be a most fine-grained combination");
    RAP_CHECK_MSG(static_cast<std::uint32_t>(elem) <
                      static_cast<std::uint32_t>(limits[a]),
                  "element id out of range in slot " << a);
  }
  addKey(schema_.pack(slots), v, f, anomalous);
}

void LeafTable::addKey(std::uint64_t key, double v, double f,
                       bool anomalous) {
  RAP_CHECK_MSG(schema_.isLeafKey(key),
                "packed key " << key << " is not a leaf of the schema");
  keys_.push_back(key);
  v_.push_back(v);
  f_.push_back(f);
  anomalous_.push_back(anomalous ? 1 : 0);
}

void LeafTable::reserve(std::size_t n) {
  keys_.reserve(n);
  v_.reserve(n);
  f_.reserve(n);
  anomalous_.reserve(n);
}

bool LeafTable::rowMatches(RowId id, const AttributeCombination& ac) const {
  if (ac.attributeCount() != schema_.attributeCount()) return false;
  for (AttrId a = 0; a < schema_.attributeCount(); ++a) {
    const ElemId want = ac.slots()[static_cast<std::size_t>(a)];
    if (want != kWildcard && want != elem(id, a)) return false;
  }
  return true;
}

AttributeCombination LeafTable::leaf(RowId id) const {
  return combination(id, allAttributesMask(schema_));
}

AttributeCombination LeafTable::combination(RowId id, CuboidMask mask) const {
  RAP_CHECK(id < size());
  return combinationOfLeaf(schema_, keys_[id], mask);
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
  const KeyProjection projection(schema_, mask);
  const std::size_t n = size();
  scratch.keys.resize(n);
  std::uint64_t* keys = scratch.keys.data();
  projection.project(keys_, keys);

  cells = projection.cells();
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
    out[j].ac = combination(groups[j].first_row, mask);
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
  const std::uint64_t cells = KeyProjection(schema_, mask).cells();
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
  for (const RowId id : subset) {
    RAP_CHECK(id < size());
    part.addKey(keys_[id], v_[id], f_[id], anomalous_[id] != 0);
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
