// LeafTable — the paper's most fine-grained dataset D (Table III): one row
// per leaf attribute combination with its actual value v, forecast value f
// and the per-leaf anomaly-detection verdict.  This is the only input the
// RAPMiner algorithm consumes (paper §IV-B).
//
// The table is stored column by column: one element-code column per
// attribute, a v column, an f column and a 0/1 verdict column.  That is
// the layout the counting wants — every quantity of Algorithms 1-2 is a
// sweep over a few of these columns — so the table is also the one
// aggregation plane: groupByInto projects every leaf onto a cuboid and
// accumulates counts and KPI sums per projected combination.
#pragma once

#include <cstdint>
#include <ranges>
#include <span>
#include <vector>

#include "dataset/attribute_combination.h"
#include "dataset/cuboid.h"
#include "dataset/schema.h"

namespace rap::dataset {

using RowId = std::uint32_t;

/// One leaf as generators and parsers hand it to the table.
struct LeafRow {
  AttributeCombination ac;  ///< fully concrete combination
  double v = 0.0;           ///< actual KPI value
  double f = 0.0;           ///< forecast KPI value
  bool anomalous = false;   ///< leaf-level detection verdict
};

/// Confidence(ac => Anomaly) = support_count(ac, Anomaly) /
/// support_count(ac); 0 for an empty group.
inline double groupConfidence(std::uint32_t anomalous,
                              std::uint32_t total) noexcept {
  return total == 0 ? 0.0
                    : static_cast<double>(anomalous) /
                          static_cast<double>(total);
}

/// One group of LeafTable::groupByInto: the leaves whose projection onto
/// the cuboid has mixed-radix key `key` (combinationKey; decoded by
/// combinationFromKey).  `total`/`anomalous` are the paper's
/// support_count(ac) and support_count(ac, Anomaly); `first_row` is the
/// group's lowest row id.
struct KeyedGroup {
  std::uint64_t key = 0;
  RowId first_row = 0;
  std::uint32_t total = 0;
  std::uint32_t anomalous = 0;

  double confidence() const noexcept {
    return groupConfidence(anomalous, total);
  }
};

/// A group with its combination decoded and its KPI sums — what the
/// baselines consume.
struct GroupAggregate {
  AttributeCombination ac;
  std::uint32_t total = 0;
  std::uint32_t anomalous = 0;
  double v_sum = 0.0;
  double f_sum = 0.0;

  double confidence() const noexcept {
    return groupConfidence(anomalous, total);
  }
};

/// GroupAggregate plus the member rows (needed by baselines that inspect
/// leaf values per group, e.g. Squeeze's GPS).
struct GroupWithRows {
  GroupAggregate agg;
  std::vector<RowId> rows;
};

/// One accumulation cell of the group-by; `first_row` is set on the
/// cell's first touch.
struct GroupCell {
  std::uint32_t total = 0;
  std::uint32_t anomalous = 0;
  RowId first_row = 0;
};

/// Caller-owned scratch memory for LeafTable::groupByInto.  All buffers
/// grow to the high-water mark of the cuboids aggregated through them
/// and are then reused without reallocation.  Invariant between calls:
/// every cell of `dense` is zero (groupByInto restores it before
/// returning).  After a call, `keys` holds every row's projection key
/// onto the cuboid.  A scratch serves one thread at a time; give each
/// worker its own.
struct GroupByScratch {
  std::vector<std::uint64_t> keys;        ///< [row] projection keys
  std::vector<std::uint64_t> group_keys;  ///< [group] keys, first touch
  std::vector<GroupCell> dense;           ///< accumulation cells
  std::vector<RowId> order;               ///< sort fallback: rows by key
  std::vector<AttrId> attrs;              ///< member attributes of the mask
  std::vector<std::uint64_t> strides;     ///< mixed-radix strides of attrs
};

class LeafTable {
 public:
  explicit LeafTable(Schema schema);

  const Schema& schema() const noexcept { return schema_; }

  /// Appends a leaf row.  The combination must be a leaf over this schema
  /// with in-range element ids; duplicate leaves are allowed (a sparse
  /// table may legitimately carry repeated measurements).
  void addRow(LeafRow row);

  /// Convenience used heavily by tests and generators.
  void addRow(AttributeCombination ac, double v, double f, bool anomalous);

  /// The same from the leaf's element ids, one per attribute — what
  /// parsers hold, without building an AttributeCombination.
  void addRow(std::span<const ElemId> slots, double v, double f,
              bool anomalous);

  void reserve(std::size_t n);

  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }

  /// Column accessors — what every hot path reads.
  ElemId elem(RowId id, AttrId attr) const {
    return columns_[static_cast<std::size_t>(attr)][id];
  }
  double v(RowId id) const { return v_[id]; }
  double f(RowId id) const { return f_[id]; }
  bool isAnomalous(RowId id) const { return anomalous_[id] != 0; }

  /// True iff row `id`'s leaf is covered by `ac` (agrees on every
  /// concrete slot).
  bool rowMatches(RowId id, const AttributeCombination& ac) const;

  /// Row `id` as a LeafRow, or just its leaf combination.  Both allocate
  /// an AttributeCombination: for tests, generators and reports, not for
  /// hot paths.
  LeafRow row(RowId id) const;
  AttributeCombination leaf(RowId id) const;

  /// Every row in order, as LeafRows by value (one allocation per row):
  /// `for (const auto& row : table.rows())`.  The view reads the table,
  /// so it must not outlive it.
  auto rows() const {
    return std::views::iota(RowId{0}, static_cast<RowId>(size())) |
           std::views::transform([this](RowId id) { return row(id); });
  }

  /// Overwrite the verdict of one row (used by detectors).
  void setAnomalous(RowId id, bool anomalous) {
    RAP_CHECK(id < size());
    anomalous_[id] = anomalous ? 1 : 0;
  }

  std::uint32_t anomalousCount() const noexcept;
  double totalV() const noexcept;
  double totalF() const noexcept;

  /// Aggregation of all leaves by their projection onto `mask` into
  /// `out[0 .. returned count)`, one group per combination with at least
  /// one supporting leaf (the table may be sparse), in ascending
  /// mixed-radix key order (attribute order, element id: the
  /// lexicographic order of the decoded combinations).  Nothing is
  /// decoded and no KPI is summed: a group is its key, first row and
  /// support counts, and combinationFromKey(schema(), mask, key) turns
  /// it into an AttributeCombination.  `out` only ever grows; entries
  /// past the returned count are stale.  In steady state (row count and cuboid
  /// sizes no larger than already seen through `scratch`) the call
  /// performs no heap allocation.  Cuboids with more than kDenseLimit
  /// cells are aggregated by sorting the rows by key instead of through
  /// the dense cell array.  Safe to call from several threads at once,
  /// each with its own scratch.
  std::size_t groupByInto(CuboidMask mask, GroupByScratch& scratch,
                          std::vector<KeyedGroup>& out) const;

  /// groupByInto into fresh memory, every group decoded, with Σv and Σf
  /// accumulated in row order.
  std::vector<GroupAggregate> groupBy(CuboidMask mask) const;

  /// Same, with member row ids attached.
  std::vector<GroupWithRows> groupByWithRows(CuboidMask mask) const;

  /// Aggregation restricted to a subset of rows (e.g. one Squeeze
  /// deviation cluster); sums accumulate and member rows are listed in
  /// subset order.
  std::vector<GroupWithRows> groupByWithRows(
      CuboidMask mask, const std::vector<RowId>& subset) const;

  /// Support counts for a single combination by a scan over the table —
  /// the definition-level reference the group-by is tested against.
  GroupAggregate aggregateFor(const AttributeCombination& ac) const;

  /// True iff every anomalous leaf is covered by at least one of the
  /// given combinations — the early-stop test of Algorithm 2.
  bool coversAllAnomalies(const std::vector<AttributeCombination>& acs) const;

  /// Row ids of anomalous leaves.
  std::vector<RowId> anomalousRows() const;

  /// Largest cuboid (in cells) aggregated through the dense array.
  static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 22;

 private:
  /// groupBy's groups; with `rows`, also each group's member rows.
  std::vector<GroupAggregate> decodedGroups(
      CuboidMask mask, std::vector<std::vector<RowId>>* rows) const;

  Schema schema_;
  std::vector<std::vector<ElemId>> columns_;  ///< [attr][row] element ids
  std::vector<double> v_;                     ///< [row] actual values
  std::vector<double> f_;                     ///< [row] forecast values
  std::vector<std::uint8_t> anomalous_;       ///< [row] 0/1 verdicts
};

}  // namespace rap::dataset
