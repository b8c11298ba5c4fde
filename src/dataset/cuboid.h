// Cuboid lattice (paper Fig. 2).
//
// A cuboid is identified by a bitmask over the schema's attributes: bit i
// set means attribute i is concrete in every combination of the cuboid.
// Layer k of the lattice contains the cuboids whose mask has popcount k;
// there are 2^n - 1 non-empty cuboids for n attributes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dataset/attribute_combination.h"
#include "dataset/schema.h"

namespace rap::dataset {

using CuboidMask = std::uint32_t;

/// Number of attributes in the cuboid (its lattice layer).
std::int32_t cuboidLayer(CuboidMask mask) noexcept;

/// The attribute ids present in the cuboid, ascending.
std::vector<AttrId> cuboidAttributes(CuboidMask mask);

/// Number of attribute combinations contained in the cuboid
/// (product of the member attributes' cardinalities, paper §III-C).
std::uint64_t cuboidSize(const Schema& schema, CuboidMask mask);

/// All cuboids of exactly `layer` attributes, restricted to the attributes
/// present in `allowed` (pass allAttributesMask for no restriction).
/// Masks are returned in ascending numeric order, which is deterministic.
std::vector<CuboidMask> cuboidsAtLayer(CuboidMask allowed, std::int32_t layer);

/// All 2^n - 1 non-empty cuboids within `allowed`, ordered layer by layer
/// (the BFS order of the paper's Algorithm 2).
std::vector<CuboidMask> allCuboidsByLayer(CuboidMask allowed);

/// Mask with one bit per schema attribute.
CuboidMask allAttributesMask(const Schema& schema) noexcept;

/// Projection of packed leaf keys (Schema::pack) onto a cuboid: the
/// member attributes' fields moved next to each other, in attribute
/// order, into the low bits.  Attribute 0 stays most significant, so
/// ascending projections are ascending lexicographic member slots, and
/// two leaves project equally exactly when they agree on every member
/// attribute.  The fields move as runs of adjacent member fields, one
/// AND and one shift per run.
class KeyProjection {
 public:
  KeyProjection(const Schema& schema, CuboidMask mask);

  /// One more than the largest projection of a leaf (that of
  /// Schema::lastLeafKey()): how many cells a dense array indexed by
  /// projection needs: fewer than 2^(member bits) when the first
  /// member's cardinality is not a power of two (Location's 33 elements
  /// take 6 bits, but its field never exceeds 32).
  std::uint64_t cells() const noexcept { return cells_; }

  /// out[r] = the projection of keys[r] for every r, one pass per run.
  void project(std::span<const std::uint64_t> keys, std::uint64_t* out) const;

  std::uint64_t operator()(std::uint64_t key) const noexcept {
    std::uint64_t out = 0;
    project({&key, 1}, &out);
    return out;
  }

 private:
  struct Run {
    std::uint64_t mask = 0;  ///< the run's bits in the packed key
    std::int32_t shift = 0;  ///< how far right they move
  };
  /// Runs are separated by non-member bits, so 32 attributes make at
  /// most 16 of them.
  std::array<Run, 16> runs_{};
  std::size_t run_count_ = 0;
  std::uint64_t cells_ = 0;
};

/// The combination of cuboid `mask` that covers the leaf whose packed
/// key is `key`: its fields on the member attributes, kWildcard elsewhere.
AttributeCombination combinationOfLeaf(const Schema& schema,
                                       std::uint64_t key, CuboidMask mask);

/// The leaf of rank `index` in [0, schema.leafCount()), ranked in
/// lexicographic slot order: how generators enumerate every leaf.
AttributeCombination leafFromIndex(const Schema& schema, std::uint64_t index);

/// Iterate the cuboid without materializing it: calls fn(ac) for each
/// combination, reusing one AttributeCombination buffer.
template <typename Fn>
void forEachInCuboid(const Schema& schema, CuboidMask mask, Fn&& fn) {
  const std::vector<AttrId> attrs = cuboidAttributes(mask);
  AttributeCombination ac(schema.attributeCount());
  if (attrs.empty()) return;
  std::vector<ElemId> counters(attrs.size(), 0);
  for (;;) {
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      ac.setSlot(attrs[i], counters[i]);
    }
    fn(ac);
    // Odometer increment.
    std::size_t pos = attrs.size();
    while (pos > 0) {
      --pos;
      if (++counters[pos] < schema.cardinality(attrs[pos])) break;
      counters[pos] = 0;
      if (pos == 0) return;
    }
  }
}

}  // namespace rap::dataset
