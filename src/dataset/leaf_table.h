// LeafTable — the paper's most fine-grained dataset D (Table III): one row
// per leaf attribute combination with its actual value v, forecast value f
// and the per-leaf anomaly-detection verdict.  This is the only input the
// RAPMiner algorithm consumes (paper §IV-B).
//
// The table is stored column by column: one column of packed leaf keys
// (Schema::pack: every attribute's element id in its bit field), a v
// column, an f column and a 0/1 verdict column.  That is the layout the
// counting wants — every quantity of Algorithms 1-2 is a sweep over a
// few of these columns — so the table is also the one aggregation
// plane: forEachGroup projects every key onto a cuboid (KeyProjection)
// and accumulates counts per projection (groupBy adds KPI sums).  A
// group is decoded into a combination from its first row.
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

/// One group of LeafTable::forEachGroup: the leaves whose packed keys
/// project onto the cuboid as `key` (KeyProjection).  `total`/`anomalous`
/// are the paper's support_count(ac) and support_count(ac, Anomaly);
/// `first_row` is the group's lowest row id, and
/// LeafTable::combination(first_row, mask) is the group's combination.
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

/// Caller-owned scratch memory for LeafTable::forEachGroup (and its
/// wrapper groupByInto).  All buffers grow to the high-water mark of the
/// cuboids aggregated through them and are then reused without
/// reallocation.  Invariant between calls: every cell of `dense` is zero
/// (forEachGroup restores it as it emits the groups).  After a call,
/// `keys` holds every row's projection onto the cuboid.  A scratch
/// serves one thread at a time; give each worker its own.
struct GroupByScratch {
  std::vector<std::uint64_t> keys;        ///< [row] projections
  std::vector<std::uint64_t> group_keys;  ///< [group] keys, first touch
  std::vector<GroupCell> dense;           ///< [projection] cells
  std::vector<RowId> order;               ///< sort fallback: rows by key
};

class LeafTable {
 public:
  explicit LeafTable(Schema schema);

  const Schema& schema() const noexcept { return schema_; }

  /// Appends a leaf row.  The combination must be a leaf over this schema
  /// with in-range element ids; duplicate leaves are allowed (a sparse
  /// table may legitimately carry repeated measurements).  Every addRow
  /// checks the slots, packs them and appends through addKey.
  void addRow(LeafRow row);

  /// Convenience used heavily by tests and generators.
  void addRow(AttributeCombination ac, double v, double f, bool anomalous);

  /// The same from the leaf's element ids, one per attribute — what
  /// parsers hold, without building an AttributeCombination.
  void addRow(std::span<const ElemId> slots, double v, double f,
              bool anomalous);

  /// Appends a leaf by its packed key (Schema::pack) — what sealed
  /// stream windows hold.  The one append path: aborts unless
  /// Schema::isLeafKey(key).
  void addKey(std::uint64_t key, double v, double f, bool anomalous);

  void reserve(std::size_t n);

  std::size_t size() const noexcept { return v_.size(); }
  bool empty() const noexcept { return v_.empty(); }

  /// Column accessors — what every hot path reads.
  std::uint64_t key(RowId id) const { return keys_[id]; }
  ElemId elem(RowId id, AttrId attr) const {
    return schema_.field(keys_[id], attr);
  }
  double v(RowId id) const { return v_[id]; }
  double f(RowId id) const { return f_[id]; }
  bool isAnomalous(RowId id) const { return anomalous_[id] != 0; }

  /// True iff row `id`'s leaf is covered by `ac` (agrees on every
  /// concrete slot).
  bool rowMatches(RowId id, const AttributeCombination& ac) const;

  /// Row `id` as a LeafRow, its leaf combination, or the combination of
  /// cuboid `mask` that covers it (how groups are decoded).  All three
  /// allocate an AttributeCombination: for accepted groups, tests,
  /// generators and reports, not for per-row hot paths.
  LeafRow row(RowId id) const;
  AttributeCombination leaf(RowId id) const;
  AttributeCombination combination(RowId id, CuboidMask mask) const;

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

  /// Aggregation of all leaves by their projection onto `mask`: calls
  /// fn(const KeyedGroup&) once per combination with at least one
  /// supporting leaf (the table may be sparse), in ascending projection
  /// order (attribute order, element id: the lexicographic order of the
  /// combinations).  Nothing is decoded and no KPI is summed: a group is
  /// its projection, first row and support counts, and
  /// combination(first_row, mask) turns it into an AttributeCombination.
  /// The groups are handed over as they are emitted, so no array of them
  /// is built; when fn runs, scratch.keys already holds every row's
  /// projection.  Cells are indexed by projection (KeyProjection::cells()
  /// of them).
  /// In steady state (row count and projection widths no larger than
  /// already seen through `scratch`) the call performs no heap
  /// allocation.  Cuboids with more than kDenseLimit cells are
  /// aggregated by sorting the rows by projection instead of through the
  /// dense cell array.  Safe to call from several threads at once, each
  /// with its own scratch; fn must not throw.
  template <typename Fn>
  void forEachGroup(CuboidMask mask, GroupByScratch& scratch, Fn&& fn) const;

  /// forEachGroup into `out[0 .. returned count)`.  `out` only ever
  /// grows; entries past the returned count are stale.
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

  /// Largest cuboid (in cells, KeyProjection::cells()) aggregated through
  /// the dense array.
  static constexpr std::uint64_t kDenseLimit = std::uint64_t{1} << 22;

 private:
  /// How forEachGroup hands out the groups aggregate() left in scratch.
  enum class Emit : std::uint8_t {
    kCellWalk,     ///< walk every dense cell in key order
    kTouchedKeys,  ///< visit the sorted touched keys' cells
    kSortedRows,   ///< runs of equal keys in scratch.order
  };

  /// forEachGroup's first half: projects every row's key onto `mask` into
  /// scratch.keys and aggregates them — into scratch.dense (touched keys
  /// in scratch.group_keys, sorted unless the cell walk is cheaper) or,
  /// above kDenseLimit cells, by sorting scratch.order by (key, row).
  /// `cells` receives the number of dense cells.
  Emit aggregate(CuboidMask mask, GroupByScratch& scratch,
                 std::uint64_t& cells) const;

  /// groupBy's groups; with `rows`, also each group's member rows.
  std::vector<GroupAggregate> decodedGroups(
      CuboidMask mask, std::vector<std::vector<RowId>>* rows) const;

  Schema schema_;
  std::vector<std::uint64_t> keys_;      ///< [row] packed leaf keys
  std::vector<double> v_;                ///< [row] actual values
  std::vector<double> f_;                ///< [row] forecast values
  std::vector<std::uint8_t> anomalous_;  ///< [row] 0/1 verdicts
};

template <typename Fn>
void LeafTable::forEachGroup(CuboidMask mask, GroupByScratch& scratch,
                             Fn&& fn) const {
  std::uint64_t cells = 0;
  const Emit emit = aggregate(mask, scratch, cells);
  if (emit == Emit::kSortedRows) {
    // Each run of equal keys is one group, its first row the run's first.
    const std::uint64_t* keys = scratch.keys.data();
    const std::size_t n = scratch.order.size();
    for (std::size_t i = 0; i < n;) {
      const RowId first = scratch.order[i];
      KeyedGroup g{keys[first], first, 0, 0};
      for (; i < n && keys[scratch.order[i]] == g.key; ++i) {
        g.total += 1;
        g.anomalous += anomalous_[scratch.order[i]];
      }
      fn(g);
    }
    return;
  }
  // Hands a finished cell out and zeroes it again, restoring the
  // all-zero invariant of scratch.dense.
  GroupCell* dense = scratch.dense.data();
  const auto visit = [dense, &fn](std::uint64_t key) {
    const KeyedGroup g{key, dense[key].first_row, dense[key].total,
                       dense[key].anomalous};
    dense[key] = GroupCell{};
    fn(g);
  };
  if (emit == Emit::kCellWalk) {
    for (std::uint64_t key = 0; key < cells; ++key) {
      if (dense[key].total != 0) visit(key);
    }
  } else {
    for (const std::uint64_t key : scratch.group_keys) visit(key);
  }
}

}  // namespace rap::dataset
