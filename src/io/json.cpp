#include "io/json.h"

#include <cmath>

#include "util/status.h"
#include "util/strings.h"

namespace rap::io {

void JsonWriter::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key directly
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::rawValue(const std::string& raw) {
  prefix();
  out_ += raw;
}

void JsonWriter::beginObject() {
  prefix();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::endObject() {
  RAP_CHECK_MSG(!has_element_.empty(), "endObject without beginObject");
  has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::beginArray() {
  prefix();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::endArray() {
  RAP_CHECK_MSG(!has_element_.empty(), "endArray without beginArray");
  has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::key(const std::string& name) {
  RAP_CHECK_MSG(!pending_key_, "two keys in a row");
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
  out_ += '"';
  out_ += util::escapeJson(name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(const std::string& text) {
  rawValue("\"" + util::escapeJson(text) + "\"");
}

void JsonWriter::value(const char* text) { value(std::string(text)); }

void JsonWriter::value(double number) {
  if (!std::isfinite(number)) {
    nullValue();  // JSON has no NaN/Inf
    return;
  }
  rawValue(util::strFormat("%.12g", number));
}

void JsonWriter::value(std::int64_t number) {
  rawValue(std::to_string(number));
}

void JsonWriter::value(bool flag) { rawValue(flag ? "true" : "false"); }

void JsonWriter::nullValue() { rawValue("null"); }

std::string resultToJson(const dataset::Schema& schema,
                         const core::LocalizationResult& result) {
  JsonWriter w;
  w.beginObject();
  w.key("patterns");
  w.beginArray();
  for (const auto& pattern : result.patterns) {
    w.beginObject();
    w.key("pattern");
    w.value(pattern.ac.toString(schema));
    w.key("confidence");
    w.value(pattern.confidence);
    w.key("layer");
    w.value(static_cast<std::int64_t>(pattern.layer));
    w.key("score");
    w.value(pattern.score);
    w.endObject();
  }
  w.endArray();

  w.key("stats");
  w.beginObject();
  w.key("classification_power");
  w.beginArray();
  for (const double cp : result.stats.classification_power) w.value(cp);
  w.endArray();
  w.key("kept_attributes");
  w.beginArray();
  for (const auto attr : result.stats.kept_attributes) {
    w.value(schema.attribute(attr).name());
  }
  w.endArray();
  w.key("attributes_deleted");
  w.value(static_cast<std::int64_t>(result.stats.attributes_deleted));
  w.key("cuboids_visited");
  w.value(static_cast<std::int64_t>(result.stats.cuboids_visited));
  w.key("combinations_evaluated");
  w.value(static_cast<std::int64_t>(result.stats.combinations_evaluated));
  w.key("combinations_pruned");
  w.value(static_cast<std::int64_t>(result.stats.combinations_pruned));
  w.key("early_stopped");
  w.value(result.stats.early_stopped);
  w.key("degraded");
  w.value(result.degraded);
  w.key("degraded_reason");
  if (result.stats.degraded_reason.empty()) {
    w.nullValue();
  } else {
    w.value(result.stats.degraded_reason);
  }
  w.key("search_threads");
  w.value(static_cast<std::int64_t>(result.stats.search_threads));
  w.key("layers");
  w.beginArray();
  for (const auto& layer : result.stats.layers) {
    w.beginObject();
    w.key("layer");
    w.value(static_cast<std::int64_t>(layer.layer));
    w.key("cuboids_visited");
    w.value(static_cast<std::int64_t>(layer.cuboids_visited));
    w.key("combinations_evaluated");
    w.value(static_cast<std::int64_t>(layer.combinations_evaluated));
    w.key("combinations_pruned");
    w.value(static_cast<std::int64_t>(layer.combinations_pruned));
    w.key("candidates_found");
    w.value(static_cast<std::int64_t>(layer.candidates_found));
    w.key("seconds");
    w.value(layer.seconds);
    w.key("seconds_aggregate");
    w.value(layer.seconds_aggregate);
    w.endObject();
  }
  w.endArray();
  w.key("stage_seconds");
  w.beginObject();
  w.key("attribute_deletion");
  w.value(result.stats.seconds_attribute_deletion);
  w.key("search");
  w.value(result.stats.seconds_search);
  w.key("ranking");
  w.value(result.stats.seconds_ranking);
  w.endObject();
  w.endObject();

  w.endObject();
  return std::move(w).str();
}

}  // namespace rap::io
