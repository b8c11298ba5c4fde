// Attribute schema for a multi-dimensional KPI space.
//
// A Schema is an ordered list of attributes (e.g. Location, AccessType,
// OS, Website for the CDN of the paper's Table I); each attribute has a
// dictionary of named elements.  Attribute combinations refer to elements
// by integer id, so the Schema is the single source of truth for the
// id <-> name mapping and for cardinalities.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace rap::dataset {

using AttrId = std::int32_t;
using ElemId = std::int32_t;

/// One dimension of the KPI space: a name plus an element dictionary.
class Attribute {
 public:
  Attribute(std::string name, std::vector<std::string> elements);

  const std::string& name() const noexcept { return name_; }
  std::int32_t cardinality() const noexcept {
    return static_cast<std::int32_t>(elements_.size());
  }
  const std::string& elementName(ElemId id) const;
  /// Returns the element id, or an error if the name is unknown.
  util::Result<ElemId> elementId(std::string_view element_name) const;
  /// The element id, or kNoElement if the name is unknown: the decoders'
  /// per-row lookup, which builds no Status and allocates nothing.
  ElemId findElement(std::string_view element_name) const noexcept;

  static constexpr ElemId kNoElement = -1;

 private:
  std::string name_;
  std::vector<std::string> elements_;
  /// Open-addressing index of elements_: a power-of-two table at most
  /// half full, each slot an element id or kNoElement, probed linearly
  /// from the name's hash.  Built once here; a Schema's attributes live
  /// in its shared immutable dictionary, so copies never rebuild it.
  std::vector<ElemId> slots_;
};

/// One attribute as outside input (a tenant spec, a schema file) states
/// it: a name and its element names.
struct AttributeSpec {
  std::string name;
  std::vector<std::string> elements;
};

/// Ordered set of attributes.  Immutable once constructed, so copies
/// share one dictionary: copying a Schema (every LeafTable owns one) is
/// a reference-count bump, not a rebuild of every element index.
class Schema {
 public:
  explicit Schema(std::vector<Attribute> attributes);

  /// Builds a schema from outside input.  Where the constructors abort,
  /// this returns invalidArgument: no attribute or more than 32, an
  /// attribute without elements, a repeated attribute or element name,
  /// or a leaf space (product of cardinalities) of 2^64 or more, where
  /// the mixed-radix keys of leaves and cuboids would wrap.
  static util::Result<Schema> fromSpec(std::vector<AttributeSpec> attributes);
  // Copy only: a move would leave a Schema without a dictionary, and a
  // copy costs no more than a move here.
  Schema(const Schema&) = default;
  Schema& operator=(const Schema&) = default;

  std::int32_t attributeCount() const noexcept {
    return static_cast<std::int32_t>(dict_->attributes.size());
  }
  const Attribute& attribute(AttrId id) const;
  util::Result<AttrId> attributeId(const std::string& name) const;

  std::int32_t cardinality(AttrId id) const { return attribute(id).cardinality(); }

  /// Every attribute's cardinality, indexed by AttrId, stored once with
  /// the dictionary: what per-row loops (LeafTable::addRow, decodeKey)
  /// read their limits from.
  std::span<const std::int32_t> cardinalities() const noexcept {
    return dict_->cardinalities;
  }

  /// Product of all cardinalities = number of most fine-grained
  /// attribute combinations ("leaves"), paper §III-C.
  std::uint64_t leafCount() const noexcept;

  /// Number of cuboids in the lattice: 2^n - 1 (paper §II-B).
  std::uint64_t cuboidCount() const noexcept;

  /// The paper's Table I CDN schema: Location(33), AccessType(4),
  /// OS(4), Website(20) — 10,560 leaves.
  static Schema cdn();

  /// A small schema handy for unit tests and the worked examples of
  /// the paper's Fig. 6/7: A(3), B(2), C(2), D(2).
  static Schema tiny();

  /// Synthetic schema with the given cardinalities; attribute names are
  /// "A0", "A1", ... and elements "A0=e<j>".
  static Schema synthetic(const std::vector<std::int32_t>& cardinalities);

 private:
  struct Dictionary {
    std::vector<Attribute> attributes;
    std::vector<std::int32_t> cardinalities;  ///< [attr] cached
    std::unordered_map<std::string, AttrId> index;
  };
  std::shared_ptr<const Dictionary> dict_;
};

}  // namespace rap::dataset
