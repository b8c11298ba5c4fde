// Attribute schema for a multi-dimensional KPI space.
//
// A Schema is an ordered list of attributes (e.g. Location, AccessType,
// OS, Website for the CDN of the paper's Table I); each attribute has a
// dictionary of named elements.  Attribute combinations refer to elements
// by integer id, so the Schema is the single source of truth for the
// id <-> name mapping, for cardinalities and for the packed leaf key.
//
// Packed leaf key: past parsing, a leaf is one uint64 holding attribute
// a's element id in a field of bit_width(cardinality(a) - 1) bits,
// attribute 0 most significant (the CDN schema packs into 6+2+2+5 = 15
// bits).  Ascending keys are therefore ascending lexicographic slots.
// Table rows, stream events and cuboid projections all use this key.
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
  /// this returns invalidArgument: an attribute without elements, a
  /// repeated element name, or a schema checkLimits rejects.
  static util::Result<Schema> fromSpec(std::vector<AttributeSpec> attributes);

  /// The limits every schema keeps (the constructor aborts past them):
  /// 1 to 32 attributes, no repeated attribute name, a leaf space
  /// (product of cardinalities) below 2^64, where leafCount() would
  /// wrap, and a packed leaf key of at most 64 bits.  invalidArgument
  /// names the first one broken.
  static util::Status checkLimits(const std::vector<Attribute>& attributes);
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
  /// the dictionary: what per-row loops (LeafTable::addRow) read their
  /// limits from.
  std::span<const std::int32_t> cardinalities() const noexcept {
    return dict_->cardinalities;
  }

  /// Attribute `attr`'s field within a packed key, in place: its bits
  /// set, every other bit clear (0 for a single-element attribute).
  std::uint64_t fieldMask(AttrId attr) const {
    return dict_->field_masks[static_cast<std::size_t>(attr)];
  }
  /// Its lowest bit: field(key, attr) is (key & fieldMask) >> fieldShift.
  std::int32_t fieldShift(AttrId attr) const {
    return dict_->shifts[static_cast<std::size_t>(attr)];
  }

  /// The packed key of the leaf whose every element id is its
  /// attribute's last: the largest key of any leaf.
  std::uint64_t lastLeafKey() const noexcept { return dict_->limits; }

  /// The packed key of a leaf given one in-range element id per
  /// attribute.  Unchecked: callers validate the slots first.
  std::uint64_t pack(std::span<const ElemId> slots) const noexcept {
    const Dictionary& d = *dict_;
    std::uint64_t key = 0;
    for (std::size_t a = 0; a < slots.size(); ++a) {
      key |= static_cast<std::uint64_t>(static_cast<std::uint32_t>(slots[a]))
             << d.shifts[a];
    }
    return key;
  }

  /// Attribute `attr`'s element id in packed key `key`.
  ElemId field(std::uint64_t key, AttrId attr) const {
    const auto a = static_cast<std::size_t>(attr);
    return static_cast<ElemId>((key & dict_->field_masks[a]) >>
                               dict_->shifts[a]);
  }

  /// True iff `key` packs a leaf: no bit above the fields and every
  /// field below its attribute's cardinality.  All fields are compared
  /// at once, whatever the attribute count: with each field's top bit
  /// forced on in the limits and cleared in the key, one subtraction
  /// compares the fields' lower bits without a borrow crossing a field,
  /// and the top bits decide the rest.
  bool isLeafKey(std::uint64_t key) const noexcept {
    const Dictionary& d = *dict_;
    const std::uint64_t top = d.top_bits;
    const std::uint64_t low_ge = (d.limits | top) - (key & ~top);
    const std::uint64_t le =
        (~key & d.limits) | (~(key ^ d.limits) & low_ge);
    return (key & ~d.key_bits) == 0 && (le & top) == top;
  }

  /// Product of all cardinalities = number of most fine-grained
  /// attribute combinations ("leaves"), paper §III-C.
  std::uint64_t leafCount() const noexcept { return dict_->leaf_count; }

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
    std::uint64_t leaf_count = 0;
    // Packed-key layout, derived from the cardinalities.
    std::vector<std::int32_t> shifts;        ///< [attr] field's lowest bit
    std::vector<std::uint64_t> field_masks;  ///< [attr] field, in place
    std::uint64_t key_bits = 0;  ///< every field's bits
    std::uint64_t top_bits = 0;  ///< each field's most significant bit
    std::uint64_t limits = 0;    ///< cardinality - 1 packed in every field
  };
  std::shared_ptr<const Dictionary> dict_;
};

}  // namespace rap::dataset
