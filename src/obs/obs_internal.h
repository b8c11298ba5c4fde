// Shared formatting helpers for the obs exporters.  Internal to
// src/obs — kept out of io/json.h so the obs layer depends on util
// only (io sits above core, which itself links obs).
#pragma once

#include <string>

namespace rap::obs::internal {

/// Prometheus text-exposition label-value escaping: exactly backslash,
/// double-quote, and line feed (the spec's three), everything else —
/// tabs and other control bytes included — passes through verbatim.
std::string promEscapeLabelValue(const std::string& text);

/// Shortest-ish decimal rendering for exposition output: integers print
/// without a fractional part, everything else with %.9g.
std::string formatDouble(double v);

}  // namespace rap::obs::internal
