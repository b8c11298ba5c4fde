// StreamEvent — one leaf-level KPI measurement on the wire: the fully
// concrete attribute combination, its event timestamp, the actual value
// and the forecast attached upstream by the collector (a production
// deployment of the paper's pipeline computes forecasts next to the
// collection layer, so localization inputs arrive ready-made).
//
// LeafEvent — the same measurement once ingest has validated it: the
// leaf as its packed key (dataset::Schema::pack: each element id in its
// attribute's bit field, attribute 0 most significant).  It is what
// queues, shards, the window assembler and sealed windows carry, and
// what the sealed window's LeafTable stores, so nothing past ingest
// allocates per event or decodes a leaf.  Checkpoint capture unpacks the
// keys into element ids, and restore packs them again.
//
// Timestamps are abstract event-time units (the replay harnesses use
// "seconds"); windows of width W cover [e*W, (e+1)*W) for epoch e.
#pragma once

#include <cstdint>
#include <type_traits>

#include "dataset/attribute_combination.h"

namespace rap::stream {

struct StreamEvent {
  dataset::AttributeCombination leaf;  ///< fully concrete combination
  std::int64_t ts = 0;                 ///< event time
  double v = 0.0;                      ///< actual KPI value
  double f = 0.0;                      ///< forecast KPI value
};

struct LeafEvent {
  std::uint64_t leaf = 0;  ///< packed leaf key (Schema::pack)
  std::int64_t ts = 0;     ///< event time
  double v = 0.0;          ///< actual KPI value
  double f = 0.0;          ///< forecast KPI value
};
static_assert(sizeof(LeafEvent) == 32);
static_assert(std::is_trivially_copyable_v<LeafEvent>);

/// Canonical row order of a sealed window: leaf key, then v, then f.
/// Packed-key order is the lexicographic order of the leaves' element
/// ids, so the sealed table's content is a pure function of the admitted
/// events, independent of producer interleaving and shard scheduling.
constexpr bool canonicalLess(const LeafEvent& a, const LeafEvent& b) noexcept {
  if (a.leaf != b.leaf) return a.leaf < b.leaf;
  if (a.v != b.v) return a.v < b.v;
  return a.f < b.f;
}

/// Floor division, correct for negative timestamps (epochs must tile the
/// whole time axis, not mirror around zero).
constexpr std::int64_t floorDiv(std::int64_t a, std::int64_t b) noexcept {
  const std::int64_t q = a / b;
  return q * b == a ? q : q - (((a < 0) != (b < 0)) ? 1 : 0);
}

/// Epoch (window index) of an event-time stamp for width-`width` windows.
constexpr std::int64_t epochOf(std::int64_t ts, std::int64_t width) noexcept {
  return floorDiv(ts, width);
}

}  // namespace rap::stream
