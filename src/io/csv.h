// Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas
// and quotes, both LF and CRLF line endings.  No external dependencies —
// the paper's datasets ship as plain CSV (one file per timestamp with
// columns  attr1,...,attrN,real,predict).
//
// One tokenizer, CsvStreamParser, serves every read path:
//   * streaming — CsvStreamParser::feed() arbitrary chunks, or
//     streamCsv() / streamCsvFile() over a whole text or file; each row
//     reaches the callback as views of the parser's reused field
//     buffers, so a steady stream of rows allocates nothing;
//   * batch — parseCsv()/readCsvFile(), thin wrappers that copy the
//     streamed rows into a vector.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rap::io {

using CsvRow = std::vector<std::string>;

/// A completed row as handed to a callback: the parser's own field
/// buffers, valid only until the callback returns (copy what you keep).
using CsvFields = std::span<const std::string>;

/// Receives each completed row.
using CsvRowCallback = std::function<void(CsvFields)>;

/// Incremental CSV parser.  Chunk boundaries may fall anywhere —
/// mid-field, mid-CRLF, even between the two quotes of an escaped
/// quote.  Errors report the same messages and global byte offsets
/// whatever the chunking.  After an error the parser must be discarded.
///
/// Hostile-input hardening (a daemon fed by arbitrary producers must
/// fail with a Status, never by exhausting memory or corrupting rows):
///   * a field longer than kMaxFieldBytes is an error, not an
///     allocation — a missing quote can otherwise swallow the rest of
///     the input into one field;
///   * an embedded NUL byte is an error — the datasets are text, and a
///     NUL reliably signals a truncated or binary upload.
/// Both errors carry the 1-based row number and byte offset.
class CsvStreamParser {
 public:
  /// Upper bound on one field's size, in bytes.
  static constexpr std::size_t kMaxFieldBytes = 1 << 20;

  /// Consumes one chunk, invoking `callback` for every row completed
  /// within it.
  util::Status feed(std::string_view chunk, const CsvRowCallback& callback);

  /// Signals end of input: flushes a final unterminated row (if any) and
  /// resets the parser for reuse.
  util::Status finish(const CsvRowCallback& callback);

  /// 1-based row number of the row a callback is receiving (blank lines
  /// count; a quoted line break does not start a new row).
  std::uint64_t row() const noexcept { return row_; }

 private:
  /// Field buffers of the current row: [0, count_) are complete and
  /// fields_[count_] is being filled.  Buffers keep their capacity from
  /// row to row; the vector grows only for a row wider than any before.
  std::vector<std::string> fields_ = std::vector<std::string>(1);
  std::size_t count_ = 0;
  bool in_quotes_ = false;
  /// A '"' was seen inside a quoted field; whether it closes the field
  /// or starts an escaped quote depends on the next byte, which may be
  /// in the next chunk.
  bool pending_quote_ = false;
  bool row_has_content_ = false;
  std::uint64_t offset_ = 0;  ///< global byte offset of the next char
  std::uint64_t row_ = 1;     ///< 1-based row of the next char
};

/// Tokenizes a whole in-memory document row by row (feed + finish).
util::Status streamCsv(std::string_view text, const CsvRowCallback& callback);

/// Parse an entire CSV document from a string.
util::Result<std::vector<CsvRow>> parseCsv(const std::string& text);

/// Read and parse a CSV file.
util::Result<std::vector<CsvRow>> readCsvFile(const std::string& path);

/// Stream a CSV file row by row without materializing the document
/// (64 KiB read chunks).
util::Status streamCsvFile(const std::string& path,
                           const CsvRowCallback& callback);

/// Serialize rows, quoting any field containing comma / quote / newline.
std::string writeCsv(const std::vector<CsvRow>& rows);

/// Write rows to a file, overwriting it.
util::Status writeCsvFile(const std::string& path,
                          const std::vector<CsvRow>& rows);

}  // namespace rap::io
