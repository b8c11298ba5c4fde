// Dataset (de)serialization in the layout the Squeeze repository uses:
//
//   <timestamp>.csv        attr1,...,attrN,real,predict   (one leaf per row)
//   injection_info.csv     timestamp,set(ground-truth RAPs ';'-separated)
//
// plus a schema sidecar of our own (attribute name -> elements) so a
// table round-trips without external knowledge.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dataset/leaf_table.h"
#include "gen/case.h"
#include "io/csv.h"

namespace rap::io {

/// Writes one leaf table: header "attr...,real,predict,label" then rows.
/// The label column carries the detection verdict (0/1) so a saved table
/// can be re-localized without re-running detection.
util::Status saveLeafTable(const dataset::LeafTable& table,
                           const std::string& path);

/// Reads a leaf table against a known schema.  Accepts files with or
/// without the trailing label column (absent -> all rows normal).
/// Streams the file through LeafRowDecoder; no row vector is built.
util::Result<dataset::LeafTable> loadLeafTable(const dataset::Schema& schema,
                                               const std::string& path);

/// Builds a leaf table from already-parsed CSV rows (header row first,
/// then one leaf per row): LeafRowDecoder over a row vector, for callers
/// that hold one.  `source` names the origin in error messages.
util::Result<dataset::LeafTable> leafTableFromCsvRows(
    const dataset::Schema& schema, const std::vector<CsvRow>& rows,
    const std::string& source);

/// One cell of a JSON leaf row: its text, or (a JSON number) its value.
/// CSV rows need no such wrapper: add(CsvFields) decodes their views.
struct LeafCell {
  std::string_view text;
  std::optional<double> number;
};

/// The one leaf-row decoder.  Every snapshot source — a CSV file, a CSV
/// or JSON request body, a vector of parsed rows — feeds it row by row,
/// so all of them apply the same checks with the same messages:
///   * at least N + 2 cells: N element names, real, predict, then an
///     optional label (further cells are ignored);
///   * each element name, taken verbatim, is in its attribute;
///   * real and predict parse (util::parseDouble; numbers pass through)
///     and are finite;
///   * the label, after trimming, is empty or "0" (normal) or "1"
///     (anomalous); a number label must equal 0 or 1.
/// Row errors read "<source>:<line>: <what>", where line 1 is the
/// header (a JSON body's first row is line 2 too).
///
/// A CSV row decodes straight from the tokenizer's views: an element
/// name is compared with the previous row's in its slot, else looked up
/// in the attribute's flat index; a KPI takes util::parseDoubleFast and
/// falls back to util::parseDouble only for the spellings it declines.
/// A row that decodes builds no Status and copies no field.
class LeafRowDecoder {
 public:
  /// `csv_header`: the first CSV row handed to add() is a header and is
  /// skipped; a source with no rows at all is an error.
  LeafRowDecoder(const dataset::Schema& schema, std::string source,
                 bool csv_header);

  void reserve(std::size_t rows) { table_.reserve(rows); }

  /// Decodes the next data row and returns the decoder's status: OK, or
  /// the first error, after which every later row is ignored.  The
  /// reference is valid until the next call.
  const util::Status& add(std::span<const LeafCell> cells);
  /// A CSV row: every cell is text.
  const util::Status& add(CsvFields fields);

  /// The decoded table, or the first error.
  util::Result<dataset::LeafTable> finish() &&;

 private:
  /// Counts the line, decodes it, and prefixes an error with
  /// "<source>:<line>: ".
  template <typename Cell>
  const util::Status& addRow(std::span<const Cell> cells);
  /// Checks and appends one row; on failure sets status_ to the error,
  /// without the source:line prefix, and returns false.
  template <typename Cell>
  bool decode(std::span<const Cell> cells);

  std::string source_;
  dataset::LeafTable table_;
  bool header_pending_;
  std::size_t line_ = 1;  ///< the header's line; data rows start at 2
  util::Status status_;
  /// The row being decoded; a slot not yet decoded holds the previous
  /// row's element (kWildcard before the first row).
  std::vector<dataset::ElemId> slots_;
  /// Per attribute: its dictionary and the name of slots_'s element
  /// there, so the previous-row compare reads neither through the
  /// schema.
  struct Column {
    const dataset::Attribute* attr;
    std::string_view last;
  };
  std::vector<Column> columns_;
};

/// Schema sidecar: one row per attribute, "name,elem1,elem2,...".
util::Status saveSchema(const dataset::Schema& schema, const std::string& path);
util::Result<dataset::Schema> loadSchema(const std::string& path);

/// Ground truth: one row per case, "case_id,rap1;rap2;...", each RAP in
/// the textual form AttributeCombination::toString produces.
struct GroundTruthEntry {
  std::string case_id;
  std::vector<dataset::AttributeCombination> raps;
};

util::Status saveGroundTruth(const dataset::Schema& schema,
                             const std::vector<GroundTruthEntry>& entries,
                             const std::string& path);
util::Result<std::vector<GroundTruthEntry>> loadGroundTruth(
    const dataset::Schema& schema, const std::string& path);

/// A materialized dataset directory (the layout `generate_dataset`
/// writes and the Squeeze repository uses):
///   schema.csv            attribute dictionaries
///   injection_info.csv    case_id -> ground-truth RAPs
///   <case_id>.csv         one leaf table per case
struct LoadedDataset {
  dataset::Schema schema;
  std::vector<gen::Case> cases;  ///< ordered as in injection_info.csv
};

util::Result<LoadedDataset> loadDatasetDirectory(const std::string& dir);

}  // namespace rap::io
