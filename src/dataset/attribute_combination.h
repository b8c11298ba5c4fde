// AttributeCombination — the paper's `ac`: a tuple over the schema's
// attributes where each slot is either a concrete element id or the
// wildcard '*'.  (L1, *, *, Site1) has dim 2 and lives in layer 2 of the
// cuboid lattice (paper Fig. 2).
//
// The ancestor relation follows the paper's DAG (Fig. 7): an ancestor
// constrains a subset of the slots with identical values.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dataset/schema.h"

namespace rap::dataset {

inline constexpr ElemId kWildcard = -1;

class AttributeCombination {
 public:
  AttributeCombination() = default;

  /// All-wildcard combination over `attribute_count` slots (the lattice
  /// root, representing the entire impacted scope S).
  explicit AttributeCombination(std::int32_t attribute_count)
      : slots_(static_cast<std::size_t>(attribute_count), kWildcard) {}

  /// From explicit slot values (kWildcard for '*').
  explicit AttributeCombination(std::vector<ElemId> slots)
      : slots_(std::move(slots)) {}

  /// Parse "(L1, *, *, Site1)" or "L1,*,*,Site1" against a schema.
  static util::Result<AttributeCombination> parse(const Schema& schema,
                                                  const std::string& text);

  std::int32_t attributeCount() const noexcept {
    return static_cast<std::int32_t>(slots_.size());
  }

  ElemId slot(AttrId attr) const {
    RAP_CHECK(attr >= 0 && attr < attributeCount());
    return slots_[static_cast<std::size_t>(attr)];
  }
  void setSlot(AttrId attr, ElemId elem) {
    RAP_CHECK(attr >= 0 && attr < attributeCount());
    slots_[static_cast<std::size_t>(attr)] = elem;
  }

  bool isWildcard(AttrId attr) const { return slot(attr) == kWildcard; }

  /// Number of concrete (non-wildcard) slots = the layer this ac lives in.
  std::int32_t dim() const noexcept;

  /// True when every slot is concrete (a most fine-grained combination).
  bool isLeaf() const noexcept;

  /// Bitmask of concrete attributes — identifies the cuboid (paper §II-B).
  std::uint32_t cuboidMask() const noexcept;

  /// True iff `leaf` (a fully-concrete combination) is a descendant of
  /// (or equal to) this ac, i.e. agrees on every concrete slot.
  bool matchesLeaf(const AttributeCombination& leaf) const noexcept;

  /// True iff this ac is a *proper* ancestor of `other`: it constrains a
  /// strict subset of other's concrete slots with equal values.
  bool isAncestorOf(const AttributeCombination& other) const noexcept;

  /// Ancestor-or-equal.
  bool covers(const AttributeCombination& other) const noexcept;

  /// "(L1, *, *, Site1)" — names resolved through the schema.
  std::string toString(const Schema& schema) const;

  const std::vector<ElemId>& slots() const noexcept { return slots_; }

  friend bool operator==(const AttributeCombination& a,
                         const AttributeCombination& b) noexcept {
    return a.slots_ == b.slots_;
  }
  friend bool operator<(const AttributeCombination& a,
                        const AttributeCombination& b) noexcept {
    return a.slots_ < b.slots_;
  }

 private:
  std::vector<ElemId> slots_;
};

/// FNV-style hash usable in unordered containers.
struct AcHash {
  std::size_t operator()(const AttributeCombination& ac) const noexcept;
};

}  // namespace rap::dataset
