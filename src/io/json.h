// Serialization of localization results, so the CLI tools and the
// service can feed dashboards/ticketing systems.  Built on the one JSON
// writer, util::JsonWriter.
#pragma once

#include <string>

#include "core/types.h"
#include "dataset/schema.h"

namespace rap::io {

/// Serializes a localization result:
/// {"patterns":[{"pattern":"(L1, *, *, Site1)","confidence":..,
///   "layer":..,"score":..}...],"stats":{...}}
/// The document depends only on the table and the thresholds, apart
/// from wall times: stats.search_threads, which varies with how many
/// pool workers were idle, is left out, so the result cache and the
/// journal replay reproduce it byte for byte.
std::string resultToJson(const dataset::Schema& schema,
                         const core::LocalizationResult& result);

}  // namespace rap::io
