#include "dataset/schema.h"

#include <string_view>
#include <unordered_set>

#include "util/strings.h"

namespace rap::dataset {

Attribute::Attribute(std::string name, std::vector<std::string> elements)
    : name_(std::move(name)), elements_(std::move(elements)) {
  RAP_CHECK_MSG(!elements_.empty(), "attribute '" << name_ << "' has no elements");
  index_.reserve(elements_.size());
  for (std::size_t i = 0; i < elements_.size(); ++i) {
    const bool inserted =
        index_.emplace(elements_[i], static_cast<ElemId>(i)).second;
    RAP_CHECK_MSG(inserted, "duplicate element '" << elements_[i]
                                                  << "' in attribute '"
                                                  << name_ << "'");
  }
}

const std::string& Attribute::elementName(ElemId id) const {
  RAP_CHECK_MSG(id >= 0 && id < cardinality(),
                "element id " << id << " out of range for '" << name_ << "'");
  return elements_[static_cast<std::size_t>(id)];
}

util::Result<ElemId> Attribute::elementId(std::string_view element_name) const {
  auto it = index_.find(element_name);
  if (it == index_.end()) {
    return util::Status::notFound("element '" + std::string(element_name) +
                                  "' not in attribute '" + name_ + "'");
  }
  return it->second;
}

Schema::Schema(std::vector<Attribute> attributes) {
  auto dict = std::make_shared<Dictionary>();
  dict->attributes = std::move(attributes);
  const auto& attrs = dict->attributes;
  RAP_CHECK_MSG(!attrs.empty(), "schema needs at least one attribute");
  RAP_CHECK_MSG(attrs.size() <= 32, "cuboid masks are 32-bit; got "
                                        << attrs.size() << " attributes");
  std::uint64_t leaves = 1;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    const bool inserted =
        dict->index.emplace(attrs[i].name(), static_cast<AttrId>(i)).second;
    RAP_CHECK_MSG(inserted, "duplicate attribute '" << attrs[i].name() << "'");
    const bool wraps = __builtin_mul_overflow(
        leaves, static_cast<std::uint64_t>(attrs[i].cardinality()), &leaves);
    RAP_CHECK_MSG(!wraps, "leaf space of 2^64 or more leaves");
  }
  dict_ = std::move(dict);
}

util::Result<Schema> Schema::fromSpec(std::vector<AttributeSpec> attributes) {
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
  for (const AttributeSpec& attr : attributes) {
    if (!names.insert(attr.name).second) {
      return invalid("duplicate attribute '" + attr.name + "'");
    }
    if (attr.elements.empty()) {
      return invalid("attribute '" + attr.name + "' has no elements");
    }
    std::unordered_set<std::string_view> elements;
    for (const std::string& element : attr.elements) {
      if (!elements.insert(element).second) {
        return invalid("duplicate element '" + element + "' in attribute '" +
                       attr.name + "'");
      }
    }
    const auto cardinality = static_cast<std::uint64_t>(attr.elements.size());
    if (__builtin_mul_overflow(leaves, cardinality, &leaves)) {
      return invalid("the leaf space (product of cardinalities) reaches 2^64");
    }
  }
  std::vector<Attribute> built;
  built.reserve(attributes.size());
  for (AttributeSpec& attr : attributes) {
    built.emplace_back(std::move(attr.name), std::move(attr.elements));
  }
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

std::uint64_t Schema::leafCount() const noexcept {
  std::uint64_t product = 1;
  for (const auto& attr : dict_->attributes) {
    product *= static_cast<std::uint64_t>(attr.cardinality());
  }
  return product;
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
