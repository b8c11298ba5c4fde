#include "io/json.h"

#include "util/json_writer.h"

namespace rap::io {

std::string resultToJson(const dataset::Schema& schema,
                         const core::LocalizationResult& result) {
  util::JsonWriter w;
  w.beginObject();
  w.beginArray("patterns");
  for (const auto& pattern : result.patterns) {
    w.beginObject();
    w.field("pattern", pattern.ac.toString(schema));
    w.field("confidence", pattern.confidence);
    w.field("layer", pattern.layer);
    w.field("score", pattern.score);
    w.endObject();
  }
  w.endArray();

  const core::SearchStats& stats = result.stats;
  w.beginObject("stats");
  w.beginArray("classification_power");
  for (const double cp : stats.classification_power) w.value(cp);
  w.endArray();
  w.beginArray("kept_attributes");
  for (const auto attr : stats.kept_attributes) {
    w.value(schema.attribute(attr).name());
  }
  w.endArray();
  w.field("attributes_deleted", stats.attributes_deleted);
  w.field("cuboids_visited", stats.cuboids_visited);
  w.field("combinations_evaluated", stats.combinations_evaluated);
  w.field("combinations_pruned", stats.combinations_pruned);
  w.field("early_stopped", stats.early_stopped);
  w.field("degraded", result.degraded);
  w.key("degraded_reason");
  if (stats.degraded_reason.empty()) {
    w.nullValue();
  } else {
    w.value(stats.degraded_reason);
  }
  w.beginArray("layers");
  for (const auto& layer : stats.layers) {
    w.beginObject();
    w.field("layer", layer.layer);
    w.field("cuboids_visited", layer.cuboids_visited);
    w.field("combinations_evaluated", layer.combinations_evaluated);
    w.field("combinations_pruned", layer.combinations_pruned);
    w.field("candidates_found", layer.candidates_found);
    w.field("seconds", layer.seconds);
    w.field("seconds_aggregate", layer.seconds_aggregate);
    w.endObject();
  }
  w.endArray();
  w.beginObject("stage_seconds");
  w.field("attribute_deletion", stats.seconds_attribute_deletion);
  w.field("search", stats.seconds_search);
  w.field("ranking", stats.seconds_ranking);
  w.endObject();
  w.endObject();

  w.endObject();
  return std::move(w).str();
}

}  // namespace rap::io
