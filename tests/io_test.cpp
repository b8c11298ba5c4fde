#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/types.h"
#include "dataset/cuboid.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/json.h"
#include "svc/snapshot.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rap::io {
namespace {

using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rap_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

// ------------------------------------------------------------------- CSV

TEST(Csv, ParsesPlainRows) {
  const auto rows = parseCsv("a,b,c\n1,2,3\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"1", "2", "3"}));
}

TEST(Csv, HandlesQuotedFields) {
  const auto rows =
      parseCsv("\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n").value();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "say \"hi\"");
  EXPECT_EQ(rows[0][2], "line\nbreak");
}

TEST(Csv, HandlesCrLfAndMissingTrailingNewline) {
  const auto rows = parseCsv("a,b\r\nc,d").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(Csv, EmptyFieldsPreserved) {
  const auto rows = parseCsv("a,,c\n,,\n").value();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "", "c"}));
  EXPECT_EQ(rows[1], (CsvRow{"", "", ""}));
}

TEST(Csv, EmptyDocument) {
  EXPECT_TRUE(parseCsv("").value().empty());
  EXPECT_TRUE(parseCsv("\n\n").value().empty());
}

TEST(Csv, RejectsMalformedQuoting) {
  EXPECT_FALSE(parseCsv("ab\"c,d\n").isOk());
  EXPECT_FALSE(parseCsv("\"unterminated\n").isOk());
}

TEST(Csv, WriteQuotesOnlyWhenNeeded) {
  const std::string out =
      writeCsv({{"plain", "with,comma", "with\"quote", "with\nnewline"}});
  EXPECT_EQ(out,
            "plain,\"with,comma\",\"with\"\"quote\",\"with\nnewline\"\n");
}

TEST(Csv, RoundTripArbitraryContent) {
  const std::vector<CsvRow> rows{{"a", "b,c", "d\"e"}, {"", "x\ny", "z"}};
  const auto parsed = parseCsv(writeCsv(rows)).value();
  EXPECT_EQ(parsed, rows);
}

TEST_F(TempDir, CsvFileRoundTrip) {
  const std::vector<CsvRow> rows{{"h1", "h2"}, {"1", "2"}};
  ASSERT_TRUE(writeCsvFile(path("t.csv"), rows).isOk());
  EXPECT_EQ(readCsvFile(path("t.csv")).value(), rows);
}

TEST(CsvFile, MissingFileIsNotFound) {
  const auto result = readCsvFile("/nonexistent/path/file.csv");
  ASSERT_FALSE(result.isOk());
  EXPECT_EQ(result.status().code(), util::StatusCode::kNotFound);
}

// ------------------------------------------------------- CSV (streaming)

/// Feeds `text` to a CsvStreamParser in chunks of `chunk_size` bytes.
util::Result<std::vector<CsvRow>> streamInChunks(const std::string& text,
                                                 std::size_t chunk_size) {
  std::vector<CsvRow> rows;
  const CsvRowCallback collect = [&rows](CsvFields row) {
    rows.emplace_back(row.begin(), row.end());
  };
  CsvStreamParser parser;
  for (std::size_t i = 0; i < text.size(); i += chunk_size) {
    const auto status =
        parser.feed(std::string_view(text).substr(i, chunk_size), collect);
    if (!status.isOk()) return status;
  }
  const auto status = parser.finish(collect);
  if (!status.isOk()) return status;
  return rows;
}

TEST(CsvStream, EveryChunkSizeMatchesBatchParse) {
  // Escaped quotes, embedded commas and newlines, CRLF, no trailing
  // newline — every chunk size must cut through each of them somewhere.
  const std::string text =
      "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\r\n"
      "plain,,fields\r\n"
      "last,\"row \"\"quoted\"\"\"";
  const auto batch = parseCsv(text).value();
  for (std::size_t chunk = 1; chunk <= text.size(); ++chunk) {
    EXPECT_EQ(streamInChunks(text, chunk).value(), batch)
        << "chunk size " << chunk;
  }
}

TEST(CsvStream, RowsArriveAsTheyComplete) {
  CsvStreamParser parser;
  std::vector<CsvRow> rows;
  const CsvRowCallback collect = [&rows](CsvFields row) {
    rows.emplace_back(row.begin(), row.end());
  };
  ASSERT_TRUE(parser.feed("a,b\nc,", collect).isOk());
  EXPECT_EQ(rows.size(), 1u);  // the second row is still open
  ASSERT_TRUE(parser.feed("d\n", collect).isOk());
  EXPECT_EQ(rows.size(), 2u);
  ASSERT_TRUE(parser.finish(collect).isOk());
  EXPECT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST(CsvStream, ErrorsCarryGlobalOffsets) {
  CsvStreamParser parser;
  const CsvRowCallback ignore = [](CsvFields) {};
  ASSERT_TRUE(parser.feed("x,y\na", ignore).isOk());
  const auto status = parser.feed("b\"c", ignore);
  ASSERT_FALSE(status.isOk());
  // Offset 6 in the overall stream, not offset 1 in the second chunk —
  // with the 1-based row, and the identical message the batch parser
  // produces.
  EXPECT_EQ(status.message(),
            "quote inside unquoted field at row 2 near offset 6");
  EXPECT_EQ(parseCsv("x,y\nab\"c").status().message(), status.message());
}

TEST(CsvStream, UnterminatedQuoteFailsAtFinish) {
  CsvStreamParser parser;
  const CsvRowCallback ignore = [](CsvFields) {};
  ASSERT_TRUE(parser.feed("\"open", ignore).isOk());
  const auto status = parser.finish(ignore);
  ASSERT_FALSE(status.isOk());
  EXPECT_EQ(status.message(), "unterminated quoted field");
}

TEST(CsvStream, FinishResetsForReuse) {
  CsvStreamParser parser;
  std::vector<CsvRow> rows;
  const CsvRowCallback collect = [&rows](CsvFields row) {
    rows.emplace_back(row.begin(), row.end());
  };
  ASSERT_TRUE(parser.feed("a,b", collect).isOk());
  ASSERT_TRUE(parser.finish(collect).isOk());
  ASSERT_TRUE(parser.feed("c,d", collect).isOk());
  ASSERT_TRUE(parser.finish(collect).isOk());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (CsvRow{"a", "b"}));
  EXPECT_EQ(rows[1], (CsvRow{"c", "d"}));
}

TEST_F(TempDir, StreamCsvFileDeliversEveryRow) {
  const std::vector<CsvRow> rows{
      {"h1", "h2"}, {"quoted,comma", "line\nbreak"}, {"1", "2"}};
  ASSERT_TRUE(writeCsvFile(path("s.csv"), rows).isOk());
  std::vector<CsvRow> streamed;
  ASSERT_TRUE(streamCsvFile(path("s.csv"), [&streamed](CsvFields row) {
                streamed.emplace_back(row.begin(), row.end());
              }).isOk());
  EXPECT_EQ(streamed, rows);
}

TEST(CsvStreamFile, MissingFileIsNotFound) {
  const auto status = streamCsvFile("/nonexistent/file.csv", [](CsvFields) {});
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound);
}

// -------------------------------------------------- CSV input hardening

TEST(CsvHardening, EmbeddedNulIsRejectedWithRowContext) {
  CsvStreamParser parser;
  const CsvRowCallback ignore = [](CsvFields) {};
  const std::string input = std::string("ok,row\nbad") + '\0' + "field";
  const auto status = parser.feed(input, ignore);
  ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "embedded NUL byte at row 2 near offset 10");
}

TEST(CsvHardening, OverLongFieldIsRejectedNotBuffered) {
  CsvStreamParser parser;
  const CsvRowCallback ignore = [](CsvFields) {};
  // Stay a hair under the limit, then push one byte past it in a later
  // chunk: the limit spans chunk boundaries.
  const std::string almost(CsvStreamParser::kMaxFieldBytes, 'x');
  ASSERT_TRUE(parser.feed(almost, ignore).isOk());
  const auto status = parser.feed("x", ignore);
  ASSERT_EQ(status.code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("over-long field at row 1"),
            std::string::npos);
}

TEST(CsvHardening, OverLongQuotedFieldIsRejected) {
  CsvStreamParser parser;
  const CsvRowCallback ignore = [](CsvFields) {};
  ASSERT_TRUE(parser.feed("\"", ignore).isOk());
  const std::string big(CsvStreamParser::kMaxFieldBytes + 1, 'y');
  const auto status = parser.feed(big, ignore);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument);
}

TEST(CsvHardening, FieldAtTheLimitStillParses) {
  CsvStreamParser parser;
  std::vector<CsvRow> rows;
  const CsvRowCallback collect = [&rows](CsvFields row) {
    rows.emplace_back(row.begin(), row.end());
  };
  const std::string max_field(CsvStreamParser::kMaxFieldBytes, 'z');
  ASSERT_TRUE(parser.feed(max_field + ",b\n", collect).isOk());
  ASSERT_TRUE(parser.finish(collect).isOk());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].size(), CsvStreamParser::kMaxFieldBytes);
}

// -------------------------------------------------------------- LeafTable

LeafTable sampleTable() {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    table.addRow(dataset::leafFromIndex(schema, i),
                 static_cast<double>(i) + 0.5, static_cast<double>(i) * 2.0,
                 i % 3 == 0);
  }
  return table;
}

TEST_F(TempDir, LeafTableRoundTrip) {
  const LeafTable original = sampleTable();
  ASSERT_TRUE(saveLeafTable(original, path("table.csv")).isOk());

  const auto loaded =
      loadLeafTable(original.schema(), path("table.csv")).value();
  ASSERT_EQ(loaded.size(), original.size());
  for (dataset::RowId id = 0; id < original.size(); ++id) {
    EXPECT_EQ(loaded.row(id).ac, original.row(id).ac);
    EXPECT_DOUBLE_EQ(loaded.row(id).v, original.row(id).v);
    EXPECT_DOUBLE_EQ(loaded.row(id).f, original.row(id).f);
    EXPECT_EQ(loaded.row(id).anomalous, original.row(id).anomalous);
  }
}

TEST_F(TempDir, LeafTableWithoutLabelColumnLoadsAsNormal) {
  // Squeeze-repo layout: attr...,real,predict only.
  const std::vector<CsvRow> rows{{"A", "B", "C", "D", "real", "predict"},
                                 {"a1", "b1", "c1", "d1", "10", "12"}};
  ASSERT_TRUE(writeCsvFile(path("nolabel.csv"), rows).isOk());
  const auto loaded = loadLeafTable(Schema::tiny(), path("nolabel.csv")).value();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded.row(0).anomalous);
  EXPECT_DOUBLE_EQ(loaded.row(0).v, 10.0);
}

TEST_F(TempDir, LeafTableRejectsUnknownElement) {
  const std::vector<CsvRow> rows{{"A", "B", "C", "D", "real", "predict"},
                                 {"zz", "b1", "c1", "d1", "1", "2"}};
  ASSERT_TRUE(writeCsvFile(path("bad.csv"), rows).isOk());
  EXPECT_FALSE(loadLeafTable(Schema::tiny(), path("bad.csv")).isOk());
}

TEST_F(TempDir, LeafTableRejectsShortRows) {
  const std::vector<CsvRow> rows{{"A", "B", "C", "D", "real", "predict"},
                                 {"a1", "b1", "c1", "d1", "1"}};
  ASSERT_TRUE(writeCsvFile(path("short.csv"), rows).isOk());
  EXPECT_FALSE(loadLeafTable(Schema::tiny(), path("short.csv")).isOk());
}

TEST_F(TempDir, LeafTableRejectsNonNumericKpi) {
  const std::vector<CsvRow> rows{{"A", "B", "C", "D", "real", "predict"},
                                 {"a1", "b1", "c1", "d1", "x", "2"}};
  ASSERT_TRUE(writeCsvFile(path("nan.csv"), rows).isOk());
  EXPECT_FALSE(loadLeafTable(Schema::tiny(), path("nan.csv")).isOk());
}

// ------------------------------------- single-pass decode vs batch decode

/// A snapshot body in the saveLeafTable layout with random leaves, KPIs
/// printed at %.6g or %.17g, and labels 0, 1 or empty.
std::string randomLeafBody(const Schema& schema, std::uint64_t& rng,
                           std::size_t rows) {
  std::string body;
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    body += schema.attribute(a).name() + ",";
  }
  body += "real,predict,label\n";
  for (std::size_t r = 0; r < rows; ++r) {
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      const auto e = static_cast<dataset::ElemId>(
          util::splitmix64(rng) %
          static_cast<std::uint64_t>(schema.cardinality(a)));
      body += schema.attribute(a).elementName(e) + ",";
    }
    const char* format = util::splitmix64(rng) % 2 == 0 ? "%.6g" : "%.17g";
    for (int k = 0; k < 2; ++k) {
      const double value =
          static_cast<double>(util::splitmix64(rng) % 1000000) / 7.0;
      body += util::strFormat(format, value) + ",";
    }
    static const char* const kLabels[] = {"0", "1", ""};
    body += kLabels[util::splitmix64(rng) % 3];
    body += '\n';
  }
  return body;
}

/// One random corruption: a byte flip, an inserted quote / CR / NUL, a
/// truncation, an extra column or a missing one.
void mutateBody(std::string& body, std::uint64_t& rng) {
  if (body.empty()) return;
  const std::size_t pos = util::splitmix64(rng) % body.size();
  switch (util::splitmix64(rng) % 7) {
    case 0:
      body[pos] = static_cast<char>(body[pos] ^ (1 << (util::splitmix64(rng) % 8)));
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
    case 5: {
      const std::size_t eol = body.find('\n', pos);
      body.insert(eol == std::string::npos ? body.size() : eol, ",7");
      break;
    }
    default: {
      const std::size_t comma = body.find(',', pos);
      if (comma == std::string::npos) break;
      const std::size_t next = body.find_first_of(",\n", comma + 1);
      body.erase(comma, (next == std::string::npos ? body.size() : next) - comma);
      break;
    }
  }
}

/// "hash <snapshotHash>" for a decoded table, "error <message>" else.
std::string decodeOutcome(const util::Result<LeafTable>& decoded) {
  if (!decoded.isOk()) return "error " + decoded.status().message();
  return "hash " + std::to_string(svc::snapshotHash(decoded.value()));
}

/// The batch path: materialize every row, then build the table.
util::Result<LeafTable> batchDecode(const Schema& schema,
                                    const std::string& body,
                                    const std::string& source) {
  auto rows = parseCsv(body);
  if (!rows.isOk()) return rows.status();
  return leafTableFromCsvRows(schema, rows.value(), source);
}

/// loadLeafTable's pipeline (tokenizer -> decoder) fed `chunk` bytes at
/// a time.
util::Result<LeafTable> decodeInChunks(const Schema& schema,
                                       const std::string& body,
                                       std::size_t chunk) {
  LeafRowDecoder decoder(schema, "request body", /*csv_header=*/true);
  const CsvRowCallback sink = [&decoder](CsvFields row) {
    (void)decoder.add(row);
  };
  CsvStreamParser parser;
  for (std::size_t i = 0; i < body.size(); i += chunk) {
    RAP_RETURN_IF_ERROR(
        parser.feed(std::string_view(body).substr(i, chunk), sink));
  }
  RAP_RETURN_IF_ERROR(parser.finish(sink));
  return std::move(decoder).finish();
}

TEST_F(TempDir, SinglePassDecodeMatchesBatchDecodeUnderMutation) {
  const Schema schemas[] = {Schema::cdn(), Schema::tiny()};
  std::uint64_t rng = 20220627;
  int decoded = 0;
  int rejected = 0;
  constexpr int kCases = 1200;
  for (int c = 0; c < kCases; ++c) {
    const Schema& schema = schemas[c % 2];
    std::string body =
        randomLeafBody(schema, rng, 1 + util::splitmix64(rng) % 40);
    const auto mutations = util::splitmix64(rng) % 3;
    for (std::uint64_t m = 0; m < mutations; ++m) mutateBody(body, rng);

    const std::string expected =
        decodeOutcome(batchDecode(schema, body, "request body"));
    EXPECT_EQ(decodeOutcome(svc::parseCsvSnapshot(schema, body)), expected)
        << "case " << c;
    for (const std::size_t chunk : {1, 7, 65536}) {
      EXPECT_EQ(decodeOutcome(decodeInChunks(schema, body, chunk)), expected)
          << "case " << c << " chunk " << chunk;
    }
    std::ofstream(path("m.csv"), std::ios::binary | std::ios::trunc) << body;
    EXPECT_EQ(decodeOutcome(loadLeafTable(schema, path("m.csv"))),
              decodeOutcome(batchDecode(schema, body, path("m.csv"))))
        << "case " << c;
    (expected.rfind("hash", 0) == 0 ? decoded : rejected) += 1;
  }
  // Both outcomes are exercised in earnest.
  EXPECT_GT(decoded, kCases / 5);
  EXPECT_GT(rejected, kCases / 5);
}

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

void expectParsesLikeStrtod(const std::string& text) {
  const auto got = util::parseDouble(text);
  const auto want = strtodReference(text);
  ASSERT_EQ(got.isOk(), want.isOk()) << "'" << text << "'";
  if (want.isOk()) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value()),
              std::bit_cast<std::uint64_t>(want.value()))
        << "'" << text << "'";
  } else {
    EXPECT_EQ(got.status().code(), want.status().code()) << "'" << text << "'";
    EXPECT_EQ(got.status().message(), want.status().message());
  }
}

TEST(ParseDouble, AgreesWithStrtodBitForBit) {
  for (const char* edge :
       {"+1", " 1 ", ".5", "5.", "-0", "0", "1e-400", "4.9e-324", "1e309",
        "0x1p3", "inf", "-inf", "nan", "1e", "--1", "", " ", "1e5x",
        "\t3\n", "2.2250738585072011e-308", "2.2250738585072012e-308",
        "2.2250738585072014e-308", "1.7976931348623157e308",
        "1.7976931348623159e308", "1e-310", "infinity", "1,5"}) {
    expectParsesLikeStrtod(edge);
  }
  std::uint64_t rng = 918273;
  for (int i = 0; i < 20000; ++i) {
    // Every bit pattern (subnormals, inf and nan included), plus doubles
    // within a few ulps of DBL_MIN and plain KPI-sized values.
    double value = std::bit_cast<double>(util::splitmix64(rng));
    if (i % 3 == 1) {
      value = std::bit_cast<double>(0x0010000000000000ull -
                                    8 + util::splitmix64(rng) % 16);
    } else if (i % 3 == 2) {
      value = static_cast<double>(util::splitmix64(rng) % 100000000) / 97.0;
    }
    expectParsesLikeStrtod(util::strFormat("%.6g", value));
    expectParsesLikeStrtod(util::strFormat("%.17g", value));
  }
}

// ----------------------------------------------------------------- Schema

TEST_F(TempDir, SchemaRoundTrip) {
  const Schema original = Schema::cdn();
  ASSERT_TRUE(saveSchema(original, path("schema.csv")).isOk());
  const auto loaded = loadSchema(path("schema.csv")).value();
  ASSERT_EQ(loaded.attributeCount(), original.attributeCount());
  for (dataset::AttrId a = 0; a < original.attributeCount(); ++a) {
    EXPECT_EQ(loaded.attribute(a).name(), original.attribute(a).name());
    EXPECT_EQ(loaded.cardinality(a), original.cardinality(a));
  }
}

TEST_F(TempDir, SchemaRejectsRowsWithoutElements) {
  ASSERT_TRUE(writeCsvFile(path("s.csv"), {{"OnlyName"}}).isOk());
  EXPECT_FALSE(loadSchema(path("s.csv")).isOk());
}

/// `count` schema-file rows "a<i>,a<i>=e0,..." of `cardinality` elements.
std::vector<CsvRow> schemaRows(int count, int cardinality) {
  std::vector<CsvRow> rows;
  for (int i = 0; i < count; ++i) {
    const std::string name = "a" + std::to_string(i);
    CsvRow row{name};
    for (int e = 0; e < cardinality; ++e) {
      row.push_back(name + "=e" + std::to_string(e));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST_F(TempDir, SchemaRejectsWhatTheConstructorAbortsOn) {
  const std::vector<std::pair<std::string, std::vector<CsvRow>>> bad = {
      {"repeated element", {{"a", "x", "x"}}},
      {"repeated attribute", {{"a", "x"}, {"a", "y"}}},
      {"33 attributes", schemaRows(33, 1)},
      {"2^64 leaves", schemaRows(8, 256)},
      {"2^64 leaves at the last attribute", schemaRows(32, 4)},
      {"beyond 2^64 leaves", schemaRows(9, 256)},
      // 5^27 < 2^64 leaves, but 27 fields of 3 bits: an 81-bit key.
      {"packed key over 64 bits", schemaRows(27, 5)},
  };
  for (const auto& [what, rows] : bad) {
    ASSERT_TRUE(writeCsvFile(path("s.csv"), rows).isOk());
    const auto loaded = loadSchema(path("s.csv"));
    ASSERT_FALSE(loaded.isOk()) << what;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << what;
  }

  // The limits themselves still load: 32 attributes (a 64-bit packed
  // key), 2^63 leaves (a 63-bit one).
  std::vector<CsvRow> half = schemaRows(7, 256);
  half.push_back(schemaRows(8, 128).back());
  for (const auto& rows : {schemaRows(32, 3), half}) {
    ASSERT_TRUE(writeCsvFile(path("s.csv"), rows).isOk());
    const auto loaded = loadSchema(path("s.csv"));
    ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
    EXPECT_EQ(loaded->attributeCount(), static_cast<std::int32_t>(rows.size()));
  }
  EXPECT_EQ(loadSchema(path("s.csv"))->leafCount(), std::uint64_t{1} << 63);
}

// ----------------------------------------------------------- GroundTruth

TEST_F(TempDir, GroundTruthRoundTrip) {
  const Schema schema = Schema::tiny();
  std::vector<GroundTruthEntry> entries;
  entries.push_back(
      {"case-1",
       {AttributeCombination::parse(schema, "(a1, *, *, *)").value(),
        AttributeCombination::parse(schema, "(*, b2, c1, *)").value()}});
  entries.push_back({"case-2", {}});

  ASSERT_TRUE(saveGroundTruth(schema, entries, path("gt.csv")).isOk());
  const auto loaded = loadGroundTruth(schema, path("gt.csv")).value();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].case_id, "case-1");
  EXPECT_EQ(loaded[0].raps, entries[0].raps);
  EXPECT_TRUE(loaded[1].raps.empty());
}

TEST_F(TempDir, DatasetDirectoryRoundTrip) {
  const Schema schema = Schema::tiny();
  // Two cases with distinct tables and truths.
  std::vector<GroundTruthEntry> truth;
  for (int i = 0; i < 2; ++i) {
    LeafTable table(schema);
    for (std::uint64_t leaf = 0; leaf < schema.leafCount(); ++leaf) {
      table.addRow(dataset::leafFromIndex(schema, leaf),
                   static_cast<double>(leaf + i), 100.0, leaf % (2 + i) == 0);
    }
    const std::string id = "case" + std::to_string(i);
    ASSERT_TRUE(saveLeafTable(table, path(id + ".csv")).isOk());
    truth.push_back(
        {id, {AttributeCombination::parse(schema, "(a1, *, *, *)").value()}});
  }
  ASSERT_TRUE(saveSchema(schema, path("schema.csv")).isOk());
  ASSERT_TRUE(
      saveGroundTruth(schema, truth, path("injection_info.csv")).isOk());

  const auto loaded = loadDatasetDirectory(path(""));
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  ASSERT_EQ(loaded->cases.size(), 2u);
  EXPECT_EQ(loaded->cases[0].id, "case0");
  EXPECT_EQ(loaded->cases[0].table.size(), schema.leafCount());
  EXPECT_EQ(loaded->cases[1].truth, truth[1].raps);
  EXPECT_EQ(loaded->schema.attributeCount(), schema.attributeCount());
}

TEST_F(TempDir, LeafTableRejectsNonFiniteKpiWithRowContext) {
  const std::vector<CsvRow> rows{{"A", "B", "C", "D", "real", "predict"},
                                 {"a1", "b1", "c1", "d1", "1", "2"},
                                 {"a2", "b1", "c1", "d1", "nan", "2"}};
  ASSERT_TRUE(writeCsvFile(path("nonfinite.csv"), rows).isOk());
  const auto loaded = loadLeafTable(Schema::tiny(), path("nonfinite.csv"));
  ASSERT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  // The offending row (1-based, counting the header) is named.
  EXPECT_NE(loaded.status().message().find(":3: non-finite KPI value"),
            std::string::npos);

  const std::vector<CsvRow> inf_rows{{"A", "B", "C", "D", "real", "predict"},
                                     {"a1", "b1", "c1", "d1", "1", "inf"}};
  ASSERT_TRUE(writeCsvFile(path("inf.csv"), inf_rows).isOk());
  EXPECT_FALSE(loadLeafTable(Schema::tiny(), path("inf.csv")).isOk());
}

TEST(DatasetDirectory, MissingDirectoryIsError) {
  EXPECT_FALSE(loadDatasetDirectory("/nonexistent/rap_ds").isOk());
}

// ------------------------------------------------------------ Checkpoint

StreamCheckpoint sampleCheckpoint() {
  const Schema schema = Schema::tiny();
  StreamCheckpoint chk;
  chk.shards = 2;
  chk.window_width = 60;
  chk.max_event_ts = 1234;
  chk.shard_sealed_up_to = {5, StreamCheckpoint::kNone};
  StreamCheckpoint::Fragment open;
  open.shard = 0;
  open.epoch = 6;
  open.rows.push_back(dataset::LeafRow{
      dataset::leafFromIndex(schema, 0), 0.1 + 0.2, 1e-307, true});
  chk.fragments.push_back(open);
  StreamCheckpoint::Fragment pending;
  pending.shard = -1;
  pending.epoch = 7;
  pending.rows.push_back(dataset::LeafRow{
      dataset::leafFromIndex(schema, 3), -42.5, 3.14159265358979, false});
  chk.fragments.push_back(pending);
  return chk;
}

TEST_F(TempDir, CheckpointRoundTripsBitExactly) {
  const StreamCheckpoint original = sampleCheckpoint();
  ASSERT_TRUE(saveStreamCheckpoint(original, path("chk")).isOk());
  const auto loaded = loadStreamCheckpoint(path("chk"));
  ASSERT_TRUE(loaded.isOk()) << loaded.status().message();
  const StreamCheckpoint& got = loaded.value();
  EXPECT_EQ(got.version, StreamCheckpoint::kVersion);
  EXPECT_EQ(got.shards, original.shards);
  EXPECT_EQ(got.window_width, original.window_width);
  EXPECT_EQ(got.max_event_ts, original.max_event_ts);
  EXPECT_EQ(got.shard_sealed_up_to, original.shard_sealed_up_to);
  ASSERT_EQ(got.fragments.size(), original.fragments.size());
  for (std::size_t i = 0; i < got.fragments.size(); ++i) {
    EXPECT_EQ(got.fragments[i].shard, original.fragments[i].shard);
    EXPECT_EQ(got.fragments[i].epoch, original.fragments[i].epoch);
    ASSERT_EQ(got.fragments[i].rows.size(), original.fragments[i].rows.size());
    for (std::size_t r = 0; r < got.fragments[i].rows.size(); ++r) {
      const auto& a = got.fragments[i].rows[r];
      const auto& b = original.fragments[i].rows[r];
      EXPECT_EQ(a.ac, b.ac);
      // Hex-float serialization: bit-exact, not merely close.
      EXPECT_EQ(a.v, b.v);
      EXPECT_EQ(a.f, b.f);
      EXPECT_EQ(a.anomalous, b.anomalous);
    }
  }
}

TEST_F(TempDir, CheckpointSaveLeavesNoTmpFileBehind) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  EXPECT_TRUE(std::filesystem::exists(path("chk")));
  EXPECT_FALSE(std::filesystem::exists(path("chk") + ".tmp"));
}

TEST_F(TempDir, CheckpointRejectsUnknownVersion) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  // Bump the version in place; the loader must refuse, not half-load.
  std::string text;
  {
    std::ifstream in(path("chk"));
    std::getline(in, text);
    std::string rest((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    text = "RAPCHKPT 99\n" + rest;
  }
  {
    std::ofstream out(path("chk"), std::ios::trunc);
    out << text;
  }
  const auto loaded = loadStreamCheckpoint(path("chk"));
  ASSERT_FALSE(loaded.isOk());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unsupported checkpoint version"),
            std::string::npos);
}

TEST_F(TempDir, CheckpointRejectsTruncation) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  std::string text;
  {
    std::ifstream in(path("chk"));
    text.assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
  }
  // Drop the 'end' trailer and the final row.
  text.resize(text.size() / 2);
  {
    std::ofstream out(path("chk"), std::ios::trunc);
    out << text;
  }
  EXPECT_FALSE(loadStreamCheckpoint(path("chk")).isOk());
}

std::string checkpointBytes(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void writeCheckpointBytes(const std::string& file, std::string_view bytes) {
  std::ofstream out(file, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST_F(TempDir, CheckpointRejectsHostileRowCounts) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  const std::string text = checkpointBytes(path("chk"));
  const std::string header = "fragment 0 6 1\n";
  const std::size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos);
  for (const char* count : {"-1", "1000000000000"}) {
    SCOPED_TRACE(count);
    std::string hostile = text;
    hostile.replace(at, header.size(),
                    std::string("fragment 0 0 ") + count + "\n");
    writeCheckpointBytes(path("hostile"), hostile);
    const auto loaded = loadStreamCheckpoint(path("hostile"));
    ASSERT_FALSE(loaded.isOk());
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST_F(TempDir, CheckpointRejectsEveryTruncation) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  const std::string text = checkpointBytes(path("chk"));
  ASSERT_TRUE(loadStreamCheckpoint(path("chk")).isOk());
  // The 'end' trailer is required, so every cut short of the whole file
  // is refused, whatever line it falls in.
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    writeCheckpointBytes(path("cut"), std::string_view(text).substr(0, cut));
    const auto loaded = loadStreamCheckpoint(path("cut"));
    ASSERT_FALSE(loaded.isOk()) << "cut " << cut;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
        << "cut " << cut;
  }
}

TEST_F(TempDir, CheckpointByteMutantsLoadOrFailCleanly) {
  ASSERT_TRUE(saveStreamCheckpoint(sampleCheckpoint(), path("chk")).isOk());
  const std::string text = checkpointBytes(path("chk"));
  std::size_t refused = 0;
  std::size_t loaded_ok = 0;
  for (std::size_t at = 0; at < text.size(); ++at) {
    for (const char mutant : {'-', '9', ' ', '\n', '\0', 'x'}) {
      if (text[at] == mutant) continue;
      std::string bytes = text;
      bytes[at] = mutant;
      writeCheckpointBytes(path("mutant"), bytes);
      const auto loaded = loadStreamCheckpoint(path("mutant"));
      if (loaded.isOk()) {
        ++loaded_ok;
        continue;
      }
      EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument)
          << "byte " << at << " -> " << static_cast<int>(mutant);
      ++refused;
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(loaded_ok, 0u);
}

TEST(Checkpoint, MissingFileIsNotFound) {
  EXPECT_EQ(loadStreamCheckpoint("/nonexistent/chk").status().code(),
            util::StatusCode::kNotFound);
}

// ------------------------------------------------------------------ JSON

TEST(Json, WriterBuildsNestedDocument) {
  util::JsonWriter w;
  w.beginObject();
  w.key("n");
  w.value(std::int64_t{3});
  w.key("ok");
  w.value(true);
  w.key("ratio");
  w.value(0.5);
  w.key("items");
  w.beginArray();
  w.value("a");
  w.value("b");
  w.beginObject();
  w.key("nested");
  w.nullValue();
  w.endObject();
  w.endArray();
  w.endObject();
  EXPECT_EQ(std::move(w).str(),
            "{\"n\":3,\"ok\":true,\"ratio\":0.5,"
            "\"items\":[\"a\",\"b\",{\"nested\":null}]}");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  util::JsonWriter w;
  w.beginArray();
  w.value(std::nan(""));
  w.value(1.0 / 0.0);
  w.endArray();
  EXPECT_EQ(std::move(w).str(), "[null,null]");
}

TEST(Json, ResultSerialization) {
  const dataset::Schema schema = dataset::Schema::tiny();
  core::LocalizationResult result;
  core::ScoredPattern p;
  p.ac = AttributeCombination::parse(schema, "(a1, *, *, d1)").value();
  p.confidence = 0.95;
  p.layer = 2;
  p.score = 0.6717;
  result.patterns.push_back(p);
  result.stats.classification_power = {0.9, 0.0, 0.0, 0.4};
  result.stats.kept_attributes = {0, 3};
  result.stats.attributes_deleted = 2;
  result.stats.cuboids_visited = 3;
  result.stats.combinations_evaluated = 41;
  result.stats.early_stopped = true;

  const std::string json = resultToJson(schema, result);
  EXPECT_NE(json.find("\"pattern\":\"(a1, *, *, d1)\""), std::string::npos);
  EXPECT_NE(json.find("\"confidence\":0.95"), std::string::npos);
  EXPECT_NE(json.find("\"kept_attributes\":[\"A\",\"D\"]"), std::string::npos);
  EXPECT_NE(json.find("\"early_stopped\":true"), std::string::npos);
  EXPECT_NE(json.find("\"attributes_deleted\":2"), std::string::npos);
}

TEST_F(TempDir, GroundTruthRejectsBadPattern) {
  ASSERT_TRUE(
      writeCsvFile(path("gt.csv"), {{"case_id", "raps"}, {"c", "(bogus,*,*,*)"}})
          .isOk());
  EXPECT_FALSE(loadGroundTruth(Schema::tiny(), path("gt.csv")).isOk());
}

}  // namespace
}  // namespace rap::io
