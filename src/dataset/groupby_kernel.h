// GroupByKernel — cache-friendly cuboid aggregation over a LeafTable.
//
// LeafTable::groupBy re-reads every row's AttributeCombination (a
// heap-allocated slot vector) for every cuboid it aggregates, so a search
// that visits many cuboids pays the pointer-chasing cost over and over.
// The kernel pays it once: at construction (or rebind()) it transposes
// the table into per-attribute element-code columns (plus flat
// anomaly/value columns), and each aggregation then runs column-sweep
// passes over contiguous memory — one pass per member attribute to build
// the mixed-radix projection keys, one final pass to scatter the rows
// into a flat (total, anomalous, v_sum, f_sum) accumulation array.
//
// The one aggregation, groupByInto(mask, scratch, out), is allocation
// free: the caller supplies a GroupByScratch whose dense array is
// zero-filled only when it grows, a touched-key list records which cells
// this call wrote, and the output is produced by sorting the touched
// keys ascending.  Only touched cells are reset afterwards, so a call
// costs O(rows + groups·log groups) rather than a zero-fill and sweep of
// all cuboid_size cells.  In steady state (schema, row count and cuboid
// sizes no larger than already seen) the call performs zero heap
// allocations — asserted by `micro_primitives --assert-zero-alloc` in CI.
//
// Output contract: element-for-element identical to
// LeafTable::groupBy(mask) — same ascending-key order, same counts and,
// because rows are accumulated into per-cell sums in the same row order,
// bit-identical floating-point sums.  The kernel is immutable between
// rebind()s and safe to share across threads as long as each thread
// brings its own scratch (the parallel layer search of
// core::acGuidedSearch aggregates disjoint cuboids concurrently through
// one kernel with per-worker scratches).
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/cuboid.h"
#include "dataset/leaf_table.h"

namespace rap::dataset {

/// One accumulation cell of the dense group-by array.
struct GroupCell {
  std::uint32_t total = 0;
  std::uint32_t anomalous = 0;
  double v_sum = 0.0;
  double f_sum = 0.0;
};

/// Caller-owned scratch memory for GroupByKernel::groupByInto.  All
/// buffers grow to the high-water mark of the cuboids aggregated through
/// them and are then reused without reallocation.  Invariant between
/// calls: every cell of `dense` is zero and `touched` is empty (the
/// kernel restores both before returning).  A scratch serves one thread
/// at a time; give each worker its own.
struct GroupByScratch {
  std::vector<std::uint64_t> keys;     ///< [row] projection keys
  std::vector<GroupCell> dense;        ///< [key] accumulation cells
  std::vector<std::uint64_t> touched;  ///< keys written by this call
  std::vector<AttrId> attrs;           ///< member attributes of the mask
  std::vector<std::uint64_t> strides;  ///< mixed-radix strides of attrs
};

class GroupByKernel {
 public:
  /// Unbound kernel; rebind() before use.
  GroupByKernel() = default;

  /// Transposes `table` into columns.  O(rows * attributes); the table
  /// must outlive the kernel and not grow while the kernel is in use.
  explicit GroupByKernel(const LeafTable& table);

  /// Re-targets the kernel at another table, reusing the transposed
  /// columns' capacity — repeated localizations of same-shaped tables
  /// (same schema, same row count) re-fill the existing buffers instead
  /// of reallocating them.  Not thread-safe against concurrent
  /// aggregation calls on this kernel.
  void rebind(const LeafTable& table);

  bool bound() const noexcept { return table_ != nullptr; }
  const LeafTable& table() const noexcept { return *table_; }
  std::size_t rowCount() const noexcept { return anomalous_.size(); }

  /// One-pass aggregation of all leaves by their projection onto `mask`
  /// into `out[0 .. returned count)`, using the caller's scratch.  `out`
  /// only ever grows — entries past the returned count are stale
  /// leftovers kept alive so their heap buffers (each GroupAggregate
  /// owns an AttributeCombination) can be reused by later calls.  The
  /// returned prefix is element-for-element bit-identical to
  /// table().groupBy(mask).  Cuboids above the dense limit fall back to
  /// the table's sort-and-aggregate path (which allocates; documented
  /// exception to the zero-allocation contract).
  std::size_t groupByInto(CuboidMask mask, GroupByScratch& scratch,
                          std::vector<GroupAggregate>& out) const;

 private:
  const LeafTable* table_ = nullptr;
  // columns_[attr][row] — element code of `row` in attribute `attr`.
  std::vector<std::vector<std::uint32_t>> columns_;
  std::vector<std::uint8_t> anomalous_;  ///< [row] 0/1 verdicts
  std::vector<double> v_;                ///< [row] actual values
  std::vector<double> f_;                ///< [row] forecast values
};

}  // namespace rap::dataset
