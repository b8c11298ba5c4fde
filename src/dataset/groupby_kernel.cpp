#include "dataset/groupby_kernel.h"

#include <algorithm>

namespace rap::dataset {

namespace {

/// Same dense-array cutoff as LeafTable::groupBy; beyond it the kernel
/// delegates to the table's sort-and-aggregate fallback.
constexpr std::uint64_t kDenseLimit = 1u << 22;

}  // namespace

GroupByKernel::GroupByKernel(const LeafTable& table) { rebind(table); }

void GroupByKernel::rebind(const LeafTable& table) {
  table_ = &table;
  const Schema& schema = table.schema();
  const std::size_t n = table.size();
  columns_.resize(static_cast<std::size_t>(schema.attributeCount()));
  for (auto& column : columns_) column.resize(n);
  anomalous_.resize(n);
  v_.resize(n);
  f_.resize(n);
  for (RowId id = 0; id < n; ++id) {
    const LeafRow& row = table.row(id);
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      columns_[static_cast<std::size_t>(a)][id] =
          static_cast<std::uint32_t>(row.ac.slot(a));
    }
    anomalous_[id] = row.anomalous ? 1 : 0;
    v_[id] = row.v;
    f_[id] = row.f;
  }
}

std::size_t GroupByKernel::groupByInto(CuboidMask mask, GroupByScratch& scratch,
                                       std::vector<GroupAggregate>& out) const {
  RAP_CHECK(table_ != nullptr);
  const Schema& schema = table_->schema();
  const std::uint64_t size = cuboidSize(schema, mask);
  if (size > kDenseLimit) {
    // Sort-and-aggregate fallback for astronomically large cuboids; the
    // wholesale assignment (re)allocates, which is fine — such cuboids
    // are outside the dense plane's memory budget by definition.
    out = table_->groupBy(mask);
    return out.size();
  }

  // Member attributes + mixed-radix strides, into reused buffers;
  // matches LeafTable::projectionKey (first member varies slowest).
  scratch.attrs.clear();
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    if ((mask & (1u << a)) != 0) scratch.attrs.push_back(a);
  }
  const std::size_t m = scratch.attrs.size();
  scratch.strides.resize(m);
  std::uint64_t stride = 1;
  for (std::size_t i = m; i-- > 0;) {
    scratch.strides[i] = stride;
    stride *= static_cast<std::uint64_t>(schema.cardinality(scratch.attrs[i]));
  }

  // Column sweeps; the first pass assigns instead of accumulating, so
  // the keys buffer never needs a zero-fill of its own.
  const std::size_t n = rowCount();
  scratch.keys.resize(n);
  std::uint64_t* keys = scratch.keys.data();
  if (m == 0) std::fill(keys, keys + n, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t* column =
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

  // The dense array is zero-filled only when it grows; between calls
  // every cell is zero (restored below), so the scatter can detect the
  // first touch of a cell by total == 0 and record it in the touched
  // list instead of sweeping all `size` cells afterwards.
  if (scratch.dense.size() < size) {
    scratch.dense.resize(static_cast<std::size_t>(size));
  }
  scratch.touched.clear();
  for (std::size_t r = 0; r < n; ++r) {
    GroupCell& cell = scratch.dense[static_cast<std::size_t>(keys[r])];
    if (cell.total == 0) scratch.touched.push_back(keys[r]);
    cell.total += 1;
    cell.anomalous += anomalous_[r];
    cell.v_sum += v_[r];
    cell.f_sum += f_[r];
  }

  // Ascending-key output order — exactly LeafTable::groupBy's; the
  // per-cell sums were accumulated in row order, so the floats are
  // bit-identical too.
  std::sort(scratch.touched.begin(), scratch.touched.end());

  const std::size_t groups = scratch.touched.size();
  if (out.size() < groups) out.resize(groups);
  for (std::size_t j = 0; j < groups; ++j) {
    const std::uint64_t key = scratch.touched[j];
    GroupCell& cell = scratch.dense[static_cast<std::size_t>(key)];
    GroupAggregate& g = out[j];
    g.total = cell.total;
    g.anomalous = cell.anomalous;
    g.v_sum = cell.v_sum;
    g.f_sum = cell.f_sum;
    // Decode the mixed-radix key, reusing the slot storage of whatever
    // combination this output element held before (same-width acs are
    // rewritten in place; only a schema change reallocates).
    if (g.ac.attributeCount() != schema.attributeCount()) {
      g.ac = AttributeCombination(schema.attributeCount());
    }
    std::uint64_t rest = key;
    std::size_t i = 0;
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      if (i < m && scratch.attrs[i] == a) {
        g.ac.setSlot(a, static_cast<ElemId>(rest / scratch.strides[i]));
        rest %= scratch.strides[i];
        ++i;
      } else {
        g.ac.setSlot(a, kWildcard);
      }
    }
    cell = GroupCell{};  // restore the all-zero invariant, touched cells only
  }
  scratch.touched.clear();
  return groups;
}

}  // namespace rap::dataset
