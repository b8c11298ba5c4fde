#include "dataset/attribute_combination.h"

#include <bit>

#include "util/strings.h"

namespace rap::dataset {

util::Result<AttributeCombination> AttributeCombination::parse(
    const Schema& schema, const std::string& text) {
  std::string body = text;
  // Strip optional surrounding parens.
  {
    const auto trimmed = util::trim(body);
    if (!trimmed.empty() && trimmed.front() == '(' && trimmed.back() == ')') {
      body = std::string(trimmed.substr(1, trimmed.size() - 2));
    } else {
      body = std::string(trimmed);
    }
  }
  const auto parts = util::split(body, ',');
  if (static_cast<std::int32_t>(parts.size()) != schema.attributeCount()) {
    return util::Status::invalidArgument(
        "expected " + std::to_string(schema.attributeCount()) +
        " slots, got " + std::to_string(parts.size()) + " in '" + text + "'");
  }
  std::vector<ElemId> slots(parts.size(), kWildcard);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string token{util::trim(parts[i])};
    if (token == "*") continue;
    auto elem = schema.attribute(static_cast<AttrId>(i)).elementId(token);
    if (!elem) return elem.status();
    slots[i] = elem.value();
  }
  return AttributeCombination(std::move(slots));
}

std::int32_t AttributeCombination::dim() const noexcept {
  std::int32_t d = 0;
  for (const ElemId e : slots_) d += (e != kWildcard) ? 1 : 0;
  return d;
}

bool AttributeCombination::isLeaf() const noexcept {
  for (const ElemId e : slots_) {
    if (e == kWildcard) return false;
  }
  return !slots_.empty();
}

std::uint32_t AttributeCombination::cuboidMask() const noexcept {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != kWildcard) mask |= (1u << i);
  }
  return mask;
}

bool AttributeCombination::matchesLeaf(
    const AttributeCombination& leaf) const noexcept {
  if (leaf.slots_.size() != slots_.size()) return false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != kWildcard && slots_[i] != leaf.slots_[i]) return false;
  }
  return true;
}

bool AttributeCombination::covers(
    const AttributeCombination& other) const noexcept {
  if (other.slots_.size() != slots_.size()) return false;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] != kWildcard && slots_[i] != other.slots_[i]) return false;
  }
  return true;
}

bool AttributeCombination::isAncestorOf(
    const AttributeCombination& other) const noexcept {
  return covers(other) && dim() < other.dim();
}

std::string AttributeCombination::toString(const Schema& schema) const {
  RAP_CHECK(schema.attributeCount() == attributeCount());
  std::string out = "(";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (i > 0) out += ", ";
    if (slots_[i] == kWildcard) {
      out += "*";
    } else {
      out += schema.attribute(static_cast<AttrId>(i)).elementName(slots_[i]);
    }
  }
  out += ")";
  return out;
}

std::size_t AcHash::operator()(const AttributeCombination& ac) const noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const ElemId e : ac.slots()) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(e));
    h *= 0x100000001B3ULL;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace rap::dataset
