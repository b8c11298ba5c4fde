// Minimal JSON writer + serialization of localization results, so the
// CLI tools can feed dashboards/ticketing systems.  Writing only — this
// repository never needs to parse JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"
#include "dataset/schema.h"

namespace rap::io {

/// Incremental JSON document builder with correct string escaping.
/// Usage:
///   JsonWriter w;
///   w.beginObject();
///   w.key("n"); w.value(3);
///   w.key("items"); w.beginArray(); w.value("a"); w.endArray();
///   w.endObject();
///   std::string doc = std::move(w).str();
class JsonWriter {
 public:
  void beginObject();
  void endObject();
  void beginArray();
  void endArray();
  void key(const std::string& name);
  void value(const std::string& text);
  void value(const char* text);
  void value(double number);
  void value(std::int64_t number);
  void value(bool flag);
  void nullValue();

  std::string str() && { return std::move(out_); }
  const std::string& str() const& { return out_; }

 private:
  void prefix();  ///< emit a comma when needed
  void rawValue(const std::string& raw);

  std::string out_;
  // One entry per open container: true when at least one element has
  // been emitted (so the next element needs a comma).
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// Serializes a localization result:
/// {"patterns":[{"pattern":"(L1, *, *, Site1)","confidence":..,
///   "layer":..,"score":..}...],"stats":{...}}
std::string resultToJson(const dataset::Schema& schema,
                         const core::LocalizationResult& result);

}  // namespace rap::io
