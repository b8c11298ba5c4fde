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

KeyProjection::KeyProjection(const Schema& schema, CuboidMask mask) {
  std::uint64_t members = 0;
  for (AttrId a = 0; a < 32; ++a) {
    if ((mask & (1u << a)) == 0) continue;
    RAP_CHECK(a < schema.attributeCount());
    members |= schema.fieldMask(a);
  }
  // Each maximal run of member bits, lowest first (adding its lowest
  // bit carries through it), moves down onto the bits the lower runs
  // took.
  for (std::int32_t taken = 0; members != 0;) {
    const std::uint64_t run = members & ~(members + (members & -members));
    RAP_CHECK(run_count_ < runs_.size());
    runs_[run_count_++] = Run{run, std::countr_zero(run) - taken};
    taken += std::popcount(run);
    members &= ~run;
  }
  // A schema's leaf space is below 2^64, so the last leaf's projection
  // is never all ones: no overflow.
  cells_ = (*this)(schema.lastLeafKey()) + 1;
}

void KeyProjection::project(std::span<const std::uint64_t> keys,
                            std::uint64_t* out) const {
  const std::size_t n = keys.size();
  const std::uint64_t* in = keys.data();
  if (run_count_ == 0) std::fill(out, out + n, 0);
  // The first pass assigns, so `out` needs no zero-fill.
  for (std::size_t i = 0; i < run_count_; ++i) {
    const std::uint64_t mask = runs_[i].mask;
    const std::int32_t shift = runs_[i].shift;
    if (i == 0) {
      for (std::size_t r = 0; r < n; ++r) out[r] = (in[r] & mask) >> shift;
    } else {
      for (std::size_t r = 0; r < n; ++r) out[r] |= (in[r] & mask) >> shift;
    }
  }
}

AttributeCombination combinationOfLeaf(const Schema& schema,
                                       std::uint64_t key, CuboidMask mask) {
  AttributeCombination ac(schema.attributeCount());
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    if ((mask & (1u << a)) != 0) ac.setSlot(a, schema.field(key, a));
  }
  return ac;
}

AttributeCombination leafFromIndex(const Schema& schema, std::uint64_t index) {
  RAP_CHECK(index < schema.leafCount());
  // Mixed radix, the last attribute the least significant digit.
  std::vector<ElemId> slots(static_cast<std::size_t>(schema.attributeCount()));
  for (std::size_t a = slots.size(); a-- > 0;) {
    const auto card = static_cast<std::uint64_t>(
        schema.cardinality(static_cast<AttrId>(a)));
    slots[a] = static_cast<ElemId>(index % card);
    index /= card;
  }
  return AttributeCombination(std::move(slots));
}

}  // namespace rap::dataset
