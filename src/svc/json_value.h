// Minimal JSON document parser for the localization service's request
// bodies (util::JsonWriter writes every JSON document; the service is
// the one consumer that must *read* JSON).
//
// Scope is deliberately small: a recursive-descent parser over the full
// RFC 8259 grammar with two hostile-input guards —
//   * a nesting-depth cap (kMaxDepth) so a "[[[[..." body cannot blow
//     the stack, and
//   * strict end-of-document checking so trailing garbage is an error,
// returning util::Status instead of throwing.  Numbers are held as
// double (the service's payloads are KPI values and small counts);
// \uXXXX escapes are decoded to UTF-8, including surrogate pairs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace rap::svc {

/// One parsed JSON value.  A tagged struct instead of a class hierarchy:
/// the service inspects a handful of fields and moves on.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  /// Nesting depth beyond which parsing fails (hostile-input guard).
  static constexpr int kMaxDepth = 64;

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array_value;
  /// Members in document order (duplicate keys are kept as-is; find()
  /// returns the first).
  std::vector<std::pair<std::string, JsonValue>> object_value;

  bool isNull() const noexcept { return kind == Kind::kNull; }
  bool isBool() const noexcept { return kind == Kind::kBool; }
  bool isNumber() const noexcept { return kind == Kind::kNumber; }
  bool isString() const noexcept { return kind == Kind::kString; }
  bool isArray() const noexcept { return kind == Kind::kArray; }
  bool isObject() const noexcept { return kind == Kind::kObject; }

  /// First object member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(std::string_view key) const;

  /// Parses a full document; anything but exactly one JSON value
  /// surrounded by whitespace is an error with a byte offset.
  static util::Result<JsonValue> parse(std::string_view text);
};

}  // namespace rap::svc
