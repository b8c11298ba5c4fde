#include "dataset/cuboid.h"

#include <algorithm>
#include <bit>

namespace rap::dataset {

std::int32_t cuboidLayer(CuboidMask mask) noexcept {
  return std::popcount(mask);
}

std::vector<AttrId> cuboidAttributes(CuboidMask mask) {
  std::vector<AttrId> out;
  out.reserve(static_cast<std::size_t>(std::popcount(mask)));
  for (AttrId i = 0; i < 32; ++i) {
    if ((mask & (1u << i)) != 0) out.push_back(i);
  }
  return out;
}

std::uint64_t cuboidSize(const Schema& schema, CuboidMask mask) {
  // Walks the mask bits directly instead of materializing the attribute
  // vector: this sits on the per-cuboid hot path (groupByInto calls it
  // every invocation) and must stay allocation-free.
  std::uint64_t product = 1;
  for (AttrId attr = 0; attr < 32; ++attr) {
    if ((mask & (1u << attr)) == 0) continue;
    RAP_CHECK(attr < schema.attributeCount());
    product *= static_cast<std::uint64_t>(schema.cardinality(attr));
  }
  return product;
}

std::vector<CuboidMask> cuboidsAtLayer(CuboidMask allowed, std::int32_t layer) {
  std::vector<CuboidMask> out;
  if (layer <= 0) return out;
  // Walk sub-masks of `allowed` in ascending numeric order and keep the
  // ones with the requested popcount.  `allowed` has at most 32 bits but
  // in practice few; enumerating submasks is O(2^|allowed|).
  for (CuboidMask sub = allowed; sub != 0; sub = (sub - 1) & allowed) {
    if (std::popcount(sub) == layer) out.push_back(sub);
  }
  // Submask enumeration runs descending; restore ascending determinism.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<CuboidMask> allCuboidsByLayer(CuboidMask allowed) {
  std::vector<CuboidMask> out;
  const std::int32_t max_layer = std::popcount(allowed);
  for (std::int32_t layer = 1; layer <= max_layer; ++layer) {
    const auto at_layer = cuboidsAtLayer(allowed, layer);
    out.insert(out.end(), at_layer.begin(), at_layer.end());
  }
  return out;
}

CuboidMask allAttributesMask(const Schema& schema) noexcept {
  return (schema.attributeCount() >= 32)
             ? ~0u
             : ((1u << schema.attributeCount()) - 1);
}

std::uint64_t combinationKey(const Schema& schema,
                             const AttributeCombination& ac) {
  RAP_CHECK(ac.attributeCount() == schema.attributeCount());
  std::uint64_t key = 0;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    if (ac.isWildcard(a)) continue;
    key = key * static_cast<std::uint64_t>(schema.cardinality(a)) +
          static_cast<std::uint64_t>(ac.slot(a));
  }
  return key;
}

void decodeKey(std::span<const std::int32_t> cardinalities, CuboidMask mask,
               std::uint64_t key, std::span<ElemId> slots) {
  RAP_CHECK(slots.size() == cardinalities.size());
  // The last member attribute is the least significant digit.
  for (std::size_t a = slots.size(); a-- > 0;) {
    ElemId& slot = slots[a];
    if ((mask & (1u << a)) == 0) {
      slot = kWildcard;
      continue;
    }
    const auto card = static_cast<std::uint64_t>(cardinalities[a]);
    slot = static_cast<ElemId>(key % card);
    key /= card;
  }
}

AttributeCombination combinationFromKey(const Schema& schema, CuboidMask mask,
                                        std::uint64_t key) {
  std::vector<ElemId> slots(static_cast<std::size_t>(schema.attributeCount()));
  decodeKey(schema.cardinalities(), mask, key, slots);
  return AttributeCombination(std::move(slots));
}

AttributeCombination leafFromIndex(const Schema& schema, std::uint64_t index) {
  RAP_CHECK(index < schema.leafCount());
  return combinationFromKey(schema, allAttributesMask(schema), index);
}

}  // namespace rap::dataset
