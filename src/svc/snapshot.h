// Snapshot decoding + content hashing for the localization service.
//
// A "snapshot" is one labeled leaf-KPI window — exactly what
// csv_localize consumes from disk — delivered as an HTTP body in one of
// two encodings:
//
//   * CSV (text/csv, the default): the saveLeafTable layout,
//       attr1,...,attrN,real,predict[,label]
//     with a header row, decoded in one pass: io::CsvStreamParser hands
//     each row, as views into the body, to io::LeafRowDecoder
//     (field-size caps, NUL rejection, schema, finite-KPI and label
//     checks), with no row vector and no field copy between;
//
//   * JSON (application/json): {"rows": [[...], ...]} where each inner
//     array mirrors one CSV data row — N element-name strings followed
//     by real and predict numbers and an optional 0/1 label — and goes
//     through the same decoder, numbers as values.
//
// Content hashes key the ResultCache:
//   * contentHash(body) hashes the raw request bytes — the service's
//     fast path, computed before any parsing so an idempotent
//     resubmission never pays the decode;
//   * snapshotHash(table) hashes the decoded table (slots + KPI bit
//     patterns + verdicts) — encoding-independent, used by tests to
//     assert CSV/JSON equivalence.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "dataset/leaf_table.h"
#include "util/status.h"

namespace rap::svc {

/// Decodes a CSV request body (header + rows) against `schema`.
util::Result<dataset::LeafTable> parseCsvSnapshot(
    const dataset::Schema& schema, const std::string& body);

/// Decodes a {"rows": [[...]]} JSON request body against `schema`.
util::Result<dataset::LeafTable> parseJsonSnapshot(
    const dataset::Schema& schema, const std::string& body);

/// 64-bit FNV-1a over raw bytes (reference byte-at-a-time form).
std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Content hash for large request bodies, at close to memory speed:
/// eight independent 64-bit lanes, each `(h ^ word) * prime` over its
/// word of every 64-byte block; the lanes are folded in a fixed order,
/// then the < 64-byte tail and the length, then a murmur3 finalizer.
/// Every step is a bijection of the state, so bodies of equal length
/// that differ in one bit never collide.  Words are read in host byte
/// order.  NOT FNV-1a-compatible, and not the hash RAPJRNL-1 journals
/// carry — use only where both writer and reader call this function
/// (the service's cache key and RAPJRNL-2 journals do); tests pin its
/// values, so changing it is a journal format change.
std::uint64_t contentHash(std::string_view bytes) noexcept;

/// Mixes one more 64-bit word into a running FNV-1a hash.
std::uint64_t hashMix(std::uint64_t h, std::uint64_t word) noexcept;

/// Encoding-independent content hash of a decoded snapshot: attribute
/// count, then per row the element slots, the KPI bit patterns, and the
/// verdict, in row order.
std::uint64_t snapshotHash(const dataset::LeafTable& table) noexcept;

}  // namespace rap::svc
