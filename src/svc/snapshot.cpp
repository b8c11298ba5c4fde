#include "svc/snapshot.h"

#include <bit>
#include <cstring>

#include "io/csv.h"
#include "io/dataset_io.h"
#include "svc/json_value.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

}  // namespace

util::Result<dataset::LeafTable> parseCsvSnapshot(
    const dataset::Schema& schema, const std::string& body) {
  io::LeafRowDecoder decoder(schema, "request body", /*csv_header=*/true);
  // One row per line at most; the header line's slot is slack.
  std::size_t lines = 0;
  const char* const end = body.data() + body.size();
  for (const char* p = body.data();
       (p = static_cast<const char*>(std::memchr(p, '\n', end - p))) !=
       nullptr;
       ++p) {
    ++lines;
  }
  decoder.reserve(lines);
  RAP_RETURN_IF_ERROR(io::streamCsv(
      body, [&decoder](io::CsvFields row) { (void)decoder.add(row); }));
  return std::move(decoder).finish();
}

util::Result<dataset::LeafTable> parseJsonSnapshot(
    const dataset::Schema& schema, const std::string& body) {
  auto doc = JsonValue::parse(body);
  if (!doc.isOk()) return doc.status();
  const JsonValue* rows = doc.value().find("rows");
  if (rows == nullptr || !rows->isArray()) {
    return util::Status::invalidArgument(
        "request body: JSON snapshot must be an object with a \"rows\" "
        "array");
  }

  // Each row goes through the same decoder as a CSV row (JSON row i is
  // line i + 2, as if a header preceded it); numbers pass straight
  // through as values.
  const auto attr_count = static_cast<std::size_t>(schema.attributeCount());
  io::LeafRowDecoder decoder(schema, "request body", /*csv_header=*/false);
  decoder.reserve(rows->array_value.size());
  std::vector<io::LeafCell> cells;
  for (std::size_t i = 0; i < rows->array_value.size(); ++i) {
    const JsonValue& row = rows->array_value[i];
    if (!row.isArray()) {
      return util::Status::invalidArgument(util::strFormat(
          "request body: rows[%zu] is not an array", i));
    }
    const std::size_t n = row.array_value.size();
    if (n != attr_count + 2 && n != attr_count + 3) {
      return util::Status::invalidArgument(util::strFormat(
          "request body: rows[%zu] has %zu fields, expected %zu or %zu", i,
          n, attr_count + 2, attr_count + 3));
    }
    cells.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      const JsonValue& cell = row.array_value[c];
      if (c < attr_count) {
        if (!cell.isString()) {
          return util::Status::invalidArgument(util::strFormat(
              "request body: rows[%zu][%zu] must be an element-name string",
              i, c));
        }
        cells[c] = io::LeafCell{cell.string_value, std::nullopt};
      } else if (cell.isNumber()) {
        cells[c] = io::LeafCell{{}, cell.number_value};
      } else if (cell.isString()) {
        // Numeric strings are accepted so a proxy can forward CSV fields
        // without re-typing them; the decoder parses them like CSV text.
        cells[c] = io::LeafCell{cell.string_value, std::nullopt};
      } else {
        return util::Status::invalidArgument(util::strFormat(
            "request body: rows[%zu][%zu] must be a number", i, c));
      }
    }
    RAP_RETURN_IF_ERROR(decoder.add(std::span<const io::LeafCell>(cells)));
  }
  return std::move(decoder).finish();
}

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t contentHash(std::string_view bytes) noexcept {
  std::uint64_t h = kFnvOffset;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  // One multiply per 8 bytes instead of per byte; the request bodies
  // this keys are megabytes, and the byte-wise chain would dominate the
  // cache-hit fast path the throughput floor depends on.
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    h = (h ^ word) * kFnvPrime;
    p += sizeof(word);
    n -= sizeof(word);
  }
  for (; n > 0; --n, ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * kFnvPrime;
  }
  return hashMix(h, static_cast<std::uint64_t>(bytes.size()));
}

std::uint64_t hashMix(std::uint64_t h, std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t snapshotHash(const dataset::LeafTable& table) noexcept {
  std::uint64_t h = kFnvOffset;
  h = hashMix(h, static_cast<std::uint64_t>(table.schema().attributeCount()));
  const dataset::AttrId attrs = table.schema().attributeCount();
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    for (dataset::AttrId a = 0; a < attrs; ++a) {
      h = hashMix(h, static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(table.elem(id, a))));
    }
    h = hashMix(h, std::bit_cast<std::uint64_t>(table.v(id)));
    h = hashMix(h, std::bit_cast<std::uint64_t>(table.f(id)));
    h = hashMix(h, table.isAnomalous(id) ? 1u : 0u);
  }
  return h;
}

}  // namespace rap::svc
