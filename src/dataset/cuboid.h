// Cuboid lattice (paper Fig. 2).
//
// A cuboid is identified by a bitmask over the schema's attributes: bit i
// set means attribute i is concrete in every combination of the cuboid.
// Layer k of the lattice contains the cuboids whose mask has popcount k;
// there are 2^n - 1 non-empty cuboids for n attributes.
#pragma once

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

/// The combination codec.  A combination's key within its own cuboid is
/// the mixed-radix number whose digits are its concrete slots, the first
/// member attribute most significant, so ascending keys are ascending
/// (lexicographic) combinations.  LeafTable::groupByInto's column sweep
/// computes the same keys for every row at once.
std::uint64_t combinationKey(const Schema& schema,
                             const AttributeCombination& ac);

/// Inverse of combinationKey, without allocating: writes the slots of
/// the combination of cuboid `mask` whose key is `key` into `slots`
/// (one per schema attribute; kWildcard outside the mask).  Takes the
/// schema's cardinalities(), so a caller decoding many keys reads them
/// once.
void decodeKey(std::span<const std::int32_t> cardinalities, CuboidMask mask,
               std::uint64_t key, std::span<ElemId> slots);

/// decodeKey into a new AttributeCombination.
AttributeCombination combinationFromKey(const Schema& schema, CuboidMask mask,
                                        std::uint64_t key);

/// The leaf whose key over all attributes is `index`, in
/// [0, schema.leafCount()).
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
