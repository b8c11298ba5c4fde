#include "svc/snapshot.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "io/csv.h"
#include "io/dataset_io.h"
#include "svc/json_value.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// contentHash: lanes of a 64-byte block, each seeded apart by the
// golden-ratio step and multiplied by xxHash's 64-bit prime (dense
// bits, so a carry reaches more of the word than FNV's sparse prime).
constexpr std::size_t kHashLanes = 8;
constexpr std::size_t kHashBlock = 8 * kHashLanes;
constexpr std::uint64_t kLaneSeedStep = 0x9e3779b97f4a7c15ull;
constexpr std::uint64_t kLanePrime = 0x9e3779b185ebca87ull;

/// Mean bytes per line of a CSV body's data rows, from a few lines at
/// each of eight evenly spaced points.  Rows arrive in leaf order, so
/// the first rows alone can be shorter or longer than the rest.
double meanRowBytes(std::string_view data) {
  constexpr std::size_t kPoints = 8;
  constexpr std::size_t kLinesPerPoint = 8;
  std::size_t bytes = 0;
  std::size_t lines = 0;
  for (std::size_t k = 0; k < kPoints; ++k) {
    std::size_t begin = data.size() * k / kPoints;
    if (k > 0) {  // to the start of the next line
      begin = data.find('\n', begin);
      if (begin == std::string_view::npos) break;
      ++begin;
    }
    std::size_t end = begin;
    for (std::size_t i = 0; i < kLinesPerPoint; ++i) {
      const std::size_t nl = data.find('\n', end);
      if (nl == std::string_view::npos) break;
      end = nl + 1;
      ++lines;
    }
    bytes += end - begin;
  }
  return lines == 0 ? static_cast<double>(std::max<std::size_t>(data.size(), 1))
                    : static_cast<double>(bytes) / static_cast<double>(lines);
}

/// Rows to reserve for `bytes` of rows averaging `mean` bytes.  The
/// slack is small on purpose: a spare row costs the table 25 bytes, and
/// the service's heap peak counts them.
std::size_t rowsFor(std::size_t bytes, double mean) {
  const auto rows = static_cast<std::size_t>(static_cast<double>(bytes) / mean);
  return rows + rows / 32 + 4;
}

std::uint64_t loadWord(const char* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

}  // namespace

util::Result<dataset::LeafTable> parseCsvSnapshot(
    const dataset::Schema& schema, const std::string& body) {
  io::LeafRowDecoder decoder(schema, "request body", /*csv_header=*/true);
  // Size the table from the byte count instead of counting newlines,
  // which would read the body twice.
  const std::size_t header_end = body.find('\n');
  const std::string_view data =
      header_end == std::string::npos
          ? std::string_view()
          : std::string_view(body).substr(header_end + 1);
  const char* const body_end = body.data() + body.size();
  std::size_t reserved = rowsFor(data.size(), meanRowBytes(data));
  decoder.reserve(reserved);
  RAP_RETURN_IF_ERROR(io::streamCsv(body, [&](io::CsvFields row) {
    if (!decoder.add(row).isOk() || decoder.rows() < reserved) return;
    // The guess ran short: size the rest by the rows decoded so far,
    // or double when the last field is not a view of the body (a
    // quoted field with an escape is copied).
    const std::size_t rows = decoder.rows();
    const char* const at = row.back().data() + row.back().size();
    const std::less<const char*> before;  // a total order, even off-body
    reserved = before(data.data(), at) && !before(body_end, at)
                   ? rows + rowsFor(static_cast<std::size_t>(body_end - at),
                                    static_cast<double>(at - data.data()) /
                                        static_cast<double>(rows))
                   : 2 * rows;
    decoder.reserve(reserved);
  }));
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
  // Eight independent lanes, one per word of a 64-byte block, so the
  // multiplies overlap instead of waiting on one another: a single
  // (h ^ word) * prime chain is bound by the multiply's latency, eight
  // are bound by its throughput.  Each step is a bijection of the lane
  // state, as are the fold and the finalizer, so a body that differs
  // from another in one bit always hashes differently.
  std::uint64_t lanes[kHashLanes];
  for (std::size_t i = 0; i < kHashLanes; ++i) {
    lanes[i] = kFnvOffset + i * kLaneSeedStep;
  }
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= kHashBlock; p += kHashBlock, n -= kHashBlock) {
    for (std::size_t i = 0; i < kHashLanes; ++i) {
      lanes[i] = (lanes[i] ^ loadWord(p + 8 * i)) * kLanePrime;
    }
  }
  // Lanes in a fixed order, then the tail's whole words, its last
  // 1-7 bytes zero-extended, and the length.
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t lane : lanes) h = (h ^ lane) * kLanePrime;
  for (; n >= 8; p += 8, n -= 8) h = (h ^ loadWord(p)) * kLanePrime;
  if (n > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = (h ^ word) * kLanePrime;
  }
  h = (h ^ static_cast<std::uint64_t>(bytes.size())) * kLanePrime;
  // murmur3's fmix64: spreads the high bits, which the multiplies above
  // only carry upward, back over the whole word.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
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
