// Differential fuzz of the CSV read path against naive references.
//
// CsvStreamParser is the one tokenizer of untrusted bytes (request
// bodies, files, journal replay, /ingest), and LeafRowDecoder the one
// row decoder behind every snapshot.  Both are tuned for speed; the
// references here are written for obviousness instead:
//   * a byte-at-a-time tokenizer over the whole document, which copies
//     every field into a std::string;
//   * a field-copying leaf-row decode over the reference's rows, using
//     only Attribute::elementId and strtod.
// A deterministic splitmix64 stream produces short mutated documents
// (quotes, "" escapes, CR/CRLF, NUL, blank lines) and a few with a field
// at and just past the cap.  Each is fed at several chunk sizes so chunk
// boundaries fall inside escapes, CRLF pairs and fields.  Parser and
// reference must agree on every row delivered and on the error message,
// row and byte offset included.
#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/leaf_table.h"
#include "dataset/schema.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "svc/snapshot.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rap::io {
namespace {

using dataset::LeafTable;
using dataset::Schema;

constexpr std::size_t kCap = CsvStreamParser::kMaxFieldBytes;
/// Chunk sizes every document is fed at; 0 means the whole document.
constexpr std::size_t kChunkSizes[] = {1, 2, 3, 7, 64, 0};

/// Rows delivered, then "error: <message>" if the input was refused.
struct Tokens {
  std::vector<CsvRow> rows;
  std::string error;

  bool operator==(const Tokens&) const = default;
};

std::string describe(const Tokens& tokens) {
  std::string out;
  for (const CsvRow& row : tokens.rows) {
    out += '[';
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += "|";
      out += row[i].size() > 64 ? "<" + std::to_string(row[i].size()) + " bytes>"
                                : row[i];
    }
    out += "]\n";
  }
  if (!tokens.error.empty()) out += "error: " + tokens.error;
  return out;
}

/// The tokenizer contract, one byte at a time over the whole document.
Tokens referenceTokenize(std::string_view text) {
  Tokens out;
  CsvRow row;
  std::string field;
  bool in_quotes = false;
  bool pending_quote = false;
  bool has_content = false;
  std::uint64_t line = 1;
  const auto fail = [&](const char* what, std::size_t offset) {
    out.error = util::strFormat("%s at row %llu near offset %llu", what,
                                static_cast<unsigned long long>(line),
                                static_cast<unsigned long long>(offset));
    return out;
  };
  for (std::size_t off = 0; off < text.size(); ++off) {
    const char c = text[off];
    if (pending_quote) {
      pending_quote = false;
      if (c == '"') {  // "" inside quotes: one literal quote
        if (field.size() == kCap) return fail("over-long field", off);
        field += '"';
        continue;
      }
      in_quotes = false;
    }
    if (in_quotes) {
      if (c == '\0') return fail("embedded NUL byte", off);
      if (c == '"') {
        pending_quote = true;
        continue;
      }
      if (field.size() == kCap) return fail("over-long field", off);
      field += c;
      continue;
    }
    switch (c) {
      case '\0':
        return fail("embedded NUL byte", off);
      case '"':
        if (!field.empty()) return fail("quote inside unquoted field", off);
        in_quotes = true;
        has_content = true;
        break;
      case ',':
        row.push_back(field);
        field.clear();
        has_content = true;
        break;
      case '\r':
        break;
      case '\n':
        if (has_content) {
          row.push_back(field);
          out.rows.push_back(row);
          row.clear();
          field.clear();
          has_content = false;
        }
        line += 1;
        break;
      default:
        if (field.size() == kCap) return fail("over-long field", off);
        field += c;
        has_content = true;
        break;
    }
  }
  if (pending_quote) in_quotes = false;
  if (in_quotes) {
    out.error = "unterminated quoted field";
    return out;
  }
  if (has_content) {
    row.push_back(field);
    out.rows.push_back(row);
  }
  return out;
}

/// CsvStreamParser fed `chunk` bytes at a time (0: all at once).
Tokens streamTokenize(std::string_view text, std::size_t chunk) {
  Tokens out;
  const CsvRowCallback collect = [&out](CsvFields fields) {
    out.rows.emplace_back(fields.begin(), fields.end());
  };
  CsvStreamParser parser;
  if (chunk == 0) chunk = text.size() + 1;
  for (std::size_t i = 0; i < text.size(); i += chunk) {
    const util::Status status = parser.feed(text.substr(i, chunk), collect);
    if (!status.isOk()) {
      out.error = status.message();
      return out;
    }
  }
  const util::Status status = parser.finish(collect);
  if (!status.isOk()) out.error = status.message();
  return out;
}

void expectTokenizesLikeReference(const std::string& doc, const char* what,
                                  std::size_t index) {
  const Tokens expected = referenceTokenize(doc);
  for (const std::size_t chunk : kChunkSizes) {
    const Tokens got = streamTokenize(doc, chunk);
    if (got == expected) continue;
    ADD_FAILURE() << what << " " << index << ", chunk size " << chunk
                  << "\ninput (" << doc.size() << " bytes): "
                  << util::escapeJson(doc.size() > 200 ? doc.substr(0, 200)
                                                       : doc)
                  << "\nexpected:\n"
                  << describe(expected) << "\ngot:\n"
                  << describe(got);
    return;
  }
}

/// A short document over an alphabet heavy in the bytes the tokenizer
/// treats specially.
std::string randomDocument(std::uint64_t& rng) {
  static constexpr char kAlphabet[] = {
      'a', 'b', 'x', '1', '.', ' ', ',', ',', ',', '"', '"',
      '"', '\n', '\n', '\r', 'a', 'b', '7', ' ', ','};
  const std::size_t length = util::splitmix64(rng) % 48;
  std::string doc;
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t pick = util::splitmix64(rng);
    if (pick % 97 == 0) {
      doc += '\0';
    } else if (pick % 13 == 0) {
      doc += "\r\n";
    } else if (pick % 11 == 0) {
      doc += "\"\"";
    } else {
      doc += kAlphabet[(pick >> 8) % sizeof(kAlphabet)];
    }
  }
  return doc;
}

/// A well-formed document (random rows through writeCsv, which quotes
/// and escapes), optionally with CRLF endings and blank lines, then a
/// few random corruptions.
std::string mutatedWellFormed(std::uint64_t& rng) {
  static const char* const kFields[] = {"",      "a",    "b,c",   "say \"hi\"",
                                        "line\nbreak", "12.5", "\"",   " x ",
                                        "\r",    "tail\r\n", "\"\""};
  std::vector<CsvRow> rows(1 + util::splitmix64(rng) % 4);
  for (CsvRow& row : rows) {
    row.resize(1 + util::splitmix64(rng) % 4);
    for (std::string& field : row) {
      field = kFields[util::splitmix64(rng) % std::size(kFields)];
    }
  }
  std::string doc = writeCsv(rows);
  if (util::splitmix64(rng) % 3 == 0) {
    std::string crlf;
    for (const char c : doc) {
      if (c == '\n') crlf += '\r';
      crlf += c;
    }
    doc = std::move(crlf);
  }
  if (util::splitmix64(rng) % 4 == 0) {
    doc.insert(util::splitmix64(rng) % (doc.size() + 1), "\n\n");
  }
  const std::uint64_t mutations = util::splitmix64(rng) % 3;
  for (std::uint64_t m = 0; m < mutations && !doc.empty(); ++m) {
    const std::size_t pos = util::splitmix64(rng) % doc.size();
    switch (util::splitmix64(rng) % 6) {
      case 0:
        doc.insert(pos, 1, '"');
        break;
      case 1:
        doc.insert(pos, 1, '\r');
        break;
      case 2:
        doc.insert(pos, 1, '\0');
        break;
      case 3:
        doc.resize(pos);
        break;
      case 4:
        doc.erase(pos, 1);
        break;
      default:
        doc.insert(pos, "\"\"");
        break;
    }
  }
  return doc;
}

TEST(CsvFuzz, ShortMutatedDocumentsTokenizeLikeTheReference) {
  std::uint64_t rng = 20220627;
  constexpr std::size_t kDocs = 100000;
  std::size_t refused = 0;
  for (std::size_t d = 0; d < kDocs; ++d) {
    const std::string doc =
        d % 2 == 0 ? randomDocument(rng) : mutatedWellFormed(rng);
    expectTokenizesLikeReference(doc, "document", d);
    if (!referenceTokenize(doc).error.empty()) ++refused;
    if (::testing::Test::HasFailure()) return;  // one report is enough
  }
  // Both outcomes are exercised in earnest.
  EXPECT_GT(refused, kDocs / 20);
  EXPECT_LT(refused, kDocs - kDocs / 5);
}

TEST(CsvFuzz, FieldsAtAndPastTheCapTokenizeLikeTheReference) {
  const std::string at(kCap, 'z');
  const std::string docs[] = {
      at + ",b\n",                                 // unquoted, at the cap
      at + "z,b\n",                                // one byte past
      "a,b\r\nc," + at + "\r\n",                   // second row, CRLF
      "\"" + at + "\",b\n",                        // quoted, at the cap
      "\"" + at + "z\"\n",                         // quoted, one past
      "\"" + at.substr(1) + "\"\"\"\n",            // "" escape lands on it
      "\"" + at + "\"\"\"\n",                      // "" escape one past
      "\"" + at.substr(1) + "\"z\n",               // continuation reaches it
      "\"" + at + "\"z\n",                         // continuation one past
      at.substr(1) + "\"\n",                       // quote inside unquoted
  };
  for (std::size_t d = 0; d < std::size(docs); ++d) {
    expectTokenizesLikeReference(docs[d], "cap document", d);
  }
}

// ------------------------------------------------- leaf-row decode

/// util::parseDouble's contract, spelled out with strtod alone.
util::Result<double> strtodReference(std::string_view text) {
  const std::string buf{util::trim(text)};
  if (buf.empty()) return util::Status::invalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return util::Status::outOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return util::Status::invalidArgument("not a number: '" + buf + "'");
  }
  return value;
}

/// A decoded table in a comparable form: one line per row (element
/// ids, both KPIs as exact hex floats, label), or "error: <message>".
std::string renderTable(const LeafTable& table) {
  std::string out;
  const dataset::AttrId attrs = table.schema().attributeCount();
  for (dataset::RowId id = 0; id < table.size(); ++id) {
    for (dataset::AttrId a = 0; a < attrs; ++a) {
      out += std::to_string(table.elem(id, a)) + ",";
    }
    out += util::strFormat("%a,%a,%d\n", table.v(id), table.f(id),
                           table.isAnomalous(id) ? 1 : 0);
  }
  return out;
}

std::string renderOutcome(const util::Result<LeafTable>& decoded) {
  if (!decoded.isOk()) return "error: " + decoded.status().message();
  return renderTable(decoded.value());
}

/// The decoder contract (docs/service.md, "Snapshot decoding") over the
/// reference tokenizer's rows, every field copied, every lookup a
/// Result.
std::string referenceDecode(const Schema& schema, const std::string& body) {
  const Tokens tokens = referenceTokenize(body);
  if (!tokens.error.empty()) return "error: " + tokens.error;
  if (tokens.rows.empty()) return "error: 'request body' is empty";
  const auto attrs = static_cast<std::size_t>(schema.attributeCount());
  std::string out;
  for (std::size_t r = 1; r < tokens.rows.size(); ++r) {
    const CsvRow& row = tokens.rows[r];
    const std::string where = util::strFormat("request body:%zu: ", r + 1);
    if (row.size() < attrs + 2) {
      return "error: " + where +
             util::strFormat("expected >= %zu columns, got %zu", attrs + 2,
                             row.size());
    }
    std::string line;
    for (std::size_t a = 0; a < attrs; ++a) {
      const auto elem =
          schema.attribute(static_cast<dataset::AttrId>(a)).elementId(row[a]);
      if (!elem.isOk()) return "error: " + where + elem.status().message();
      line += std::to_string(elem.value()) + ",";
    }
    double kpi[2];
    for (std::size_t k = 0; k < 2; ++k) {
      const auto value = strtodReference(row[attrs + k]);
      if (!value.isOk()) return "error: " + where + value.status().message();
      kpi[k] = value.value();
    }
    if (!std::isfinite(kpi[0]) || !std::isfinite(kpi[1])) {
      return "error: " + where +
             util::strFormat("non-finite KPI value (real=%s predict=%s)",
                             row[attrs].c_str(), row[attrs + 1].c_str());
    }
    bool anomalous = false;
    if (row.size() > attrs + 2) {
      const std::string_view label = util::trim(row[attrs + 2]);
      if (label != "" && label != "0" && label != "1") {
        return "error: " + where + "label must be 0, 1 or empty, got '" +
               row[attrs + 2] + "'";
      }
      anomalous = label == "1";
    }
    out += line + util::strFormat("%a,%a,%d\n", kpi[0], kpi[1],
                                  anomalous ? 1 : 0);
  }
  return out;
}

/// CsvStreamParser -> LeafRowDecoder fed `chunk` bytes at a time (0:
/// all at once), the pipeline parseCsvSnapshot and loadLeafTable run.
util::Result<LeafTable> decodeInChunks(const Schema& schema,
                                       std::string_view body,
                                       std::size_t chunk) {
  LeafRowDecoder decoder(schema, "request body", /*csv_header=*/true);
  const CsvRowCallback sink = [&decoder](CsvFields row) {
    (void)decoder.add(row);
  };
  CsvStreamParser parser;
  if (chunk == 0) chunk = body.size() + 1;
  for (std::size_t i = 0; i < body.size(); i += chunk) {
    RAP_RETURN_IF_ERROR(parser.feed(body.substr(i, chunk), sink));
  }
  RAP_RETURN_IF_ERROR(parser.finish(sink));
  return std::move(decoder).finish();
}

/// A KPI cell: mostly the %.6g / %.17g forms snapshots carry, sometimes
/// one of the spellings only strtod settles (zero, subnormal, DBL_MIN,
/// hex, a sign, padding, inf/nan, junk).
std::string randomKpi(std::uint64_t& rng) {
  static const char* const kOdd[] = {
      "0",       "-0",      "0.0",      "1e-310",  "2.2250738585072014e-308",
      "0x1p3",   "+5",      " 12 ",     "\t7",     "inf",
      "nan",     "1e999",   "",         "1.5x",    "--1",
      "1e",      ".5",      "5.",       "1_000",   "1e-400"};
  const std::uint64_t pick = util::splitmix64(rng);
  if (pick % 40 == 0) return kOdd[(pick >> 8) % std::size(kOdd)];
  const double value =
      static_cast<double>(util::splitmix64(rng) % 100000000) / 997.0 -
      (pick % 5 == 0 ? 50000.0 : 0.0);
  return util::strFormat(pick % 3 == 0 ? "%.17g" : "%.6g", value);
}

/// A cdn-shaped snapshot body (Location,AccessType,OS,Website,real,
/// predict[,label]) with a few corruptions: flipped bits, inserted
/// quotes, CR, NUL or commas, quoted and escaped element names,
/// truncation, a dropped or an extra column.
std::string cdnMutant(const Schema& schema, std::uint64_t& rng) {
  const bool labeled = util::splitmix64(rng) % 2 == 0;
  const bool crlf = util::splitmix64(rng) % 4 == 0;
  const char* eol = crlf ? "\r\n" : "\n";
  std::string body = "Location,AccessType,OS,Website,real,predict";
  body += labeled ? ",label" : "";
  body += eol;
  const std::uint64_t rows = util::splitmix64(rng) % 16;
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      const auto e = static_cast<dataset::ElemId>(
          util::splitmix64(rng) %
          static_cast<std::uint64_t>(schema.cardinality(a)));
      const std::string& name = schema.attribute(a).elementName(e);
      body += util::splitmix64(rng) % 16 == 0 ? "\"" + name + "\"" : name;
      body += ',';
    }
    body += randomKpi(rng) + "," + randomKpi(rng);
    if (labeled) {
      static const char* const kLabels[] = {"0", "1", "", " 1", "2", "0 "};
      const std::uint64_t pick = util::splitmix64(rng) % 32;
      body += ",";
      body += kLabels[pick < std::size(kLabels) ? pick : pick % 2];
    }
    body += eol;
  }
  const std::uint64_t mutations = util::splitmix64(rng) % 3;
  for (std::uint64_t m = 0; m < mutations && !body.empty(); ++m) {
    const std::size_t pos = util::splitmix64(rng) % body.size();
    switch (util::splitmix64(rng) % 8) {
      case 0:
        body[pos] = static_cast<char>(body[pos] ^
                                      (1 << (util::splitmix64(rng) % 8)));
        break;
      case 1:
        body.insert(pos, 1, '"');
        break;
      case 2:
        body.insert(pos, 1, '\r');
        break;
      case 3:
        body.insert(pos, 1, '\0');
        break;
      case 4:
        body.resize(pos);
        break;
      case 5:
        body.insert(pos, 1, ',');
        break;
      case 6: {
        const std::size_t comma = body.find(',', pos);
        if (comma != std::string::npos) body.erase(comma, 1);
        break;
      }
      default:
        body.insert(pos, "\"\"");
        break;
    }
  }
  return body;
}

TEST(CsvFuzz, CdnMutantsDecodeLikeTheFieldCopyingReference) {
  const Schema schema = Schema::cdn();
  std::uint64_t rng = 918273;
  constexpr int kCases = 6000;
  int decoded = 0;
  for (int c = 0; c < kCases; ++c) {
    const std::string body = cdnMutant(schema, rng);
    const std::string expected = referenceDecode(schema, body);
    const std::string whole =
        renderOutcome(svc::parseCsvSnapshot(schema, body));
    ASSERT_EQ(whole, expected)
        << "case " << c << ", parseCsvSnapshot, input "
        << util::escapeJson(body);
    for (const std::size_t chunk : kChunkSizes) {
      ASSERT_EQ(renderOutcome(decodeInChunks(schema, body, chunk)), expected)
          << "case " << c << ", chunk size " << chunk << ", input "
          << util::escapeJson(body);
    }
    if (expected.rfind("error: ", 0) != 0) ++decoded;
  }
  // Both outcomes are exercised in earnest.
  EXPECT_GT(decoded, kCases / 5);
  EXPECT_LT(decoded, kCases - kCases / 5);
}

}  // namespace
}  // namespace rap::io
