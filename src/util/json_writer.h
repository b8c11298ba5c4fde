// The one JSON writer.
//
// Every JSON document the process emits is built by a JsonWriter:
// served replies and error envelopes, /statusz, /tracez,
// /metrics.json, Chrome traces, JSON log lines and localization
// results.  No other code appends JSON punctuation, escapes a string
// for JSON, or decides how a number in a JSON document is rendered.
// Non-finite numbers are written as null, since JSON has no NaN or Inf.
//
// Usage:
//   JsonWriter w;
//   w.beginObject();
//   w.field("n", 3);
//   w.field("uptime_seconds", up, NumberFormat::kFixed3);
//   w.beginArray("items"); w.value("a"); w.endArray();
//   w.endObject();
//   std::string doc = std::move(w).str();
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace rap::util {

/// JSON string escaping per RFC 8259: quotes, backslash, the short forms
/// \n \r \t \b \f, and \u00XX for every other control byte.
std::string escapeJson(std::string_view text);

/// How a double is rendered.  In a JSON document a non-finite value is
/// null whatever the format.
enum class NumberFormat : std::uint8_t {
  kG12,    ///< %.12g, the default
  kG9,     ///< %.9g: log fields, trace args, config echoes
  kMetric, ///< integral values below 1e15 without a fraction, else %.9g
  kFixed0, ///< %.0f: whole seconds
  kFixed3, ///< %.3f
  kFixed6, ///< %.6f
};

/// `number` rendered in `format`, non-finite values as printf writes
/// them ("nan", "inf"): for the text outputs that are not JSON
/// (Prometheus exposition, text log lines, HTTP headers).
std::string formatNumber(double number, NumberFormat format);

/// Incremental JSON document builder.  Commas, quoting and escaping
/// follow from the calls; a misnested end is a RAP_CHECK failure.
class JsonWriter {
 public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();
  void key(std::string_view name);
  /// key(name) followed by beginObject() / beginArray().
  void beginObject(std::string_view name) {
    key(name);
    beginObject();
  }
  void beginArray(std::string_view name) {
    key(name);
    beginArray();
  }

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number, NumberFormat format = NumberFormat::kG12);
  void value(bool flag) { scalar(flag ? "true" : "false"); }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void value(T number) {
    scalar(std::to_string(number));
  }
  void nullValue() { scalar("null"); }

  /// Writes `document`, a complete JSON value that a JsonWriter produced
  /// earlier (a cached result, pre-rendered trace args), as the next
  /// value, verbatim.
  void embed(std::string_view document) { scalar(document); }

  /// key(name) followed by value(args...).
  template <typename... Args>
  void field(std::string_view name, Args&&... args) {
    key(name);
    value(std::forward<Args>(args)...);
  }
  /// A log field or trace arg as one member; doubles render kG9.
  void field(const LogField& field);

  std::string str() && { return std::move(out_); }
  const std::string& str() const& { return out_; }

 private:
  void prefix();  ///< emit a comma when needed
  void scalar(std::string_view raw) {
    prefix();
    out_ += raw;
  }

  std::string out_;
  // One entry per open container: true when at least one element has
  // been emitted (so the next element needs a comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

}  // namespace rap::util
