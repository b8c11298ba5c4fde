#include "dataset/schema.h"

#include <bit>
#include <cstring>
#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace rap::dataset {

namespace {

/// Hash of an element name for Attribute's index.  Names are short, so
/// a name under eight bytes is read with at most two fixed-size loads
/// (overlapping; the length is hashed too), never byte by byte; longer
/// names go eight bytes per multiply.  A murmur3-style finalizer makes
/// the low bits, the slot, depend on every byte.
std::uint64_t elementHash(std::string_view text) noexcept {
  constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
  const char* p = text.data();
  const std::size_t n = text.size();
  std::uint64_t h = kMul ^ n;
  if (n >= 8) {
    std::uint64_t word;
    for (std::size_t i = 0; i + 8 <= n; i += 8) {
      std::memcpy(&word, p + i, 8);
      h = (h ^ word) * kMul;
    }
    std::memcpy(&word, p + n - 8, 8);
    h = (h ^ word) * kMul;
  } else if (n >= 4) {
    std::uint32_t head;
    std::uint32_t tail;
    std::memcpy(&head, p, 4);
    std::memcpy(&tail, p + n - 4, 4);
    h = (h ^ (std::uint64_t{head} << 32 | tail)) * kMul;
  } else if (n > 0) {
    const auto byte = [p](std::size_t i) {
      return static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]));
    };
    h = (h ^ (byte(0) << 16 | byte(n / 2) << 8 | byte(n - 1))) * kMul;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return h;
}

/// Bits of an attribute's field in a packed leaf key.
std::int32_t fieldWidth(std::int32_t cardinality) noexcept {
  return static_cast<std::int32_t>(
      std::bit_width(static_cast<std::uint32_t>(cardinality - 1)));
}

}  // namespace

Attribute::Attribute(std::string name, std::vector<std::string> elements)
    : name_(std::move(name)), elements_(std::move(elements)) {
  RAP_CHECK_MSG(!elements_.empty(), "attribute '" << name_ << "' has no elements");
  slots_.assign(std::bit_ceil(2 * elements_.size()), kNoElement);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    RAP_CHECK_MSG(findElement(elements_[i]) == kNoElement,
                  "duplicate element '" << elements_[i] << "' in attribute '"
                                        << name_ << "'");
    std::size_t slot = elementHash(elements_[i]) & mask;
    while (slots_[slot] != kNoElement) slot = (slot + 1) & mask;
    slots_[slot] = static_cast<ElemId>(i);
  }
}

ElemId Attribute::findElement(std::string_view element_name) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = elementHash(element_name) & mask;;
       slot = (slot + 1) & mask) {
    const ElemId id = slots_[slot];
    if (id == kNoElement ||
        elements_[static_cast<std::size_t>(id)] == element_name) {
      return id;
    }
  }
}

const std::string& Attribute::elementName(ElemId id) const {
  RAP_CHECK_MSG(id >= 0 && id < cardinality(),
                "element id " << id << " out of range for '" << name_ << "'");
  return elements_[static_cast<std::size_t>(id)];
}

util::Result<ElemId> Attribute::elementId(std::string_view element_name) const {
  const ElemId id = findElement(element_name);
  if (id == kNoElement) {
    return util::Status::notFound("element '" + std::string(element_name) +
                                  "' not in attribute '" + name_ + "'");
  }
  return id;
}

util::Status Schema::checkLimits(const std::vector<Attribute>& attributes) {
  const auto invalid = [](const std::string& why) {
    return util::Status::invalidArgument("schema: " + why);
  };
  if (attributes.empty()) return invalid("needs at least one attribute");
  if (attributes.size() > 32) {
    return invalid(util::strFormat("at most 32 attributes, got %zu",
                                   attributes.size()));
  }
  std::unordered_set<std::string_view> names;
  std::uint64_t leaves = 1;
  std::int32_t width = 0;
  for (const Attribute& attr : attributes) {
    if (!names.insert(attr.name()).second) {
      return invalid("duplicate attribute '" + attr.name() + "'");
    }
    const auto cardinality = static_cast<std::uint64_t>(attr.cardinality());
    if (__builtin_mul_overflow(leaves, cardinality, &leaves)) {
      return invalid("the leaf space (product of cardinalities) reaches 2^64");
    }
    width += fieldWidth(attr.cardinality());
  }
  if (width > 64) {
    return invalid(util::strFormat(
        "the packed leaf key needs %d bits, more than 64", width));
  }
  return util::Status::ok();
}

Schema::Schema(std::vector<Attribute> attributes) {
  const util::Status valid = checkLimits(attributes);
  RAP_CHECK_MSG(valid.isOk(), valid.message());
  auto dict = std::make_shared<Dictionary>();
  dict->attributes = std::move(attributes);
  const auto& attrs = dict->attributes;
  dict->leaf_count = 1;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    dict->index.emplace(attrs[i].name(), static_cast<AttrId>(i));
    dict->cardinalities.push_back(attrs[i].cardinality());
    dict->leaf_count *= static_cast<std::uint64_t>(attrs[i].cardinality());
  }

  // Fields from the last attribute (least significant) up.  A
  // single-element attribute has an empty field at bit 0, so no shift
  // reaches 64.
  dict->shifts.assign(attrs.size(), 0);
  dict->field_masks.assign(attrs.size(), 0);
  std::int32_t width = 0;
  for (std::size_t a = attrs.size(); a-- > 0;) {
    const std::int32_t bits = fieldWidth(dict->cardinalities[a]);
    if (bits == 0) continue;
    const auto limit = static_cast<std::uint64_t>(dict->cardinalities[a] - 1);
    dict->shifts[a] = width;
    dict->field_masks[a] = ((std::uint64_t{1} << bits) - 1) << width;
    dict->top_bits |= std::uint64_t{1} << (width + bits - 1);
    dict->limits |= limit << width;
    width += bits;
  }
  dict->key_bits = width == 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << width) - 1;
  dict_ = std::move(dict);
}

util::Result<Schema> Schema::fromSpec(std::vector<AttributeSpec> attributes) {
  // What the Attribute constructor would abort on, then the schema's
  // own limits.
  std::vector<Attribute> built;
  built.reserve(attributes.size());
  for (AttributeSpec& attr : attributes) {
    if (attr.elements.empty()) {
      return util::Status::invalidArgument("schema: attribute '" + attr.name +
                                           "' has no elements");
    }
    std::unordered_set<std::string_view> elements;
    for (const std::string& element : attr.elements) {
      if (!elements.insert(element).second) {
        return util::Status::invalidArgument(
            "schema: duplicate element '" + element + "' in attribute '" +
            attr.name + "'");
      }
    }
    built.emplace_back(std::move(attr.name), std::move(attr.elements));
  }
  RAP_RETURN_IF_ERROR(checkLimits(built));
  return Schema(std::move(built));
}

const Attribute& Schema::attribute(AttrId id) const {
  RAP_CHECK_MSG(id >= 0 && id < attributeCount(),
                "attribute id " << id << " out of range");
  return dict_->attributes[static_cast<std::size_t>(id)];
}

util::Result<AttrId> Schema::attributeId(const std::string& name) const {
  auto it = dict_->index.find(name);
  if (it == dict_->index.end()) {
    return util::Status::notFound("attribute '" + name + "' not in schema");
  }
  return it->second;
}

std::uint64_t Schema::cuboidCount() const noexcept {
  return (std::uint64_t{1} << attributeCount()) - 1;
}

namespace {

std::vector<std::string> namedElements(const std::string& prefix,
                                       std::int32_t count) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 1; i <= count; ++i) {
    out.push_back(prefix + std::to_string(i));
  }
  return out;
}

}  // namespace

Schema Schema::cdn() {
  return Schema({
      Attribute("Location", namedElements("L", 33)),
      Attribute("AccessType", {"Wireless", "Fixed", "Mobile", "Satellite"}),
      Attribute("OS", {"Android", "IOS", "Windows", "Other"}),
      Attribute("Website", namedElements("Site", 20)),
  });
}

Schema Schema::tiny() {
  return Schema({
      Attribute("A", {"a1", "a2", "a3"}),
      Attribute("B", {"b1", "b2"}),
      Attribute("C", {"c1", "c2"}),
      Attribute("D", {"d1", "d2"}),
  });
}

Schema Schema::synthetic(const std::vector<std::int32_t>& cardinalities) {
  std::vector<Attribute> attrs;
  attrs.reserve(cardinalities.size());
  for (std::size_t i = 0; i < cardinalities.size(); ++i) {
    const std::string name = "A" + std::to_string(i);
    attrs.emplace_back(name, namedElements(name + "=e", cardinalities[i]));
  }
  return Schema(std::move(attrs));
}

}  // namespace rap::dataset
