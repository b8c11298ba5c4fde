// Minimal RFC-4180-ish CSV reader/writer: quoted fields, embedded commas
// and quotes, both LF and CRLF line endings.  No external dependencies —
// the paper's datasets ship as plain CSV (one file per timestamp with
// columns  attr1,...,attrN,real,predict).
//
// One tokenizer, CsvStreamParser, serves every read path:
//   * streaming — CsvStreamParser::feed() arbitrary chunks, or
//     streamCsv() / streamCsvFile() over a whole text or file; each row
//     reaches the callback as string_views, so a steady stream of rows
//     copies and allocates nothing;
//   * batch — parseCsv()/readCsvFile(), thin wrappers that copy the
//     streamed rows into a vector.
//
// Where a row's views point:
//   * a field that lies whole inside the chunk being fed is a view of
//     the chunk itself — no byte is copied;
//   * a field that cannot be a view of the chunk is copied into the
//     parser's carry buffer: a quoted field with an escaped "" (its
//     text is no longer one contiguous run of input), a quoted field
//     followed by more text before the comma, and every field of a row
//     that a chunk boundary splits (the earlier chunk may be gone by
//     the time the row completes).  The buffer keeps its capacity, so a
//     steady stream of split rows allocates nothing either.
// A CsvFields span and every view in it are valid only until the
// callback returns: the chunk belongs to the caller and the carry
// buffer is reused for the next row.  Copy what you keep.
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

/// A completed row as handed to a callback: views of the fed chunk or of
/// the parser's carry buffer, valid only until the callback returns
/// (copy what you keep).
using CsvFields = std::span<const std::string_view>;

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
  /// A completed field of the open row that lives in carry_.
  struct Carried {
    std::size_t index;  ///< its position in the row
    std::size_t begin;  ///< its first byte in carry_
    std::size_t size;
  };

  /// Adds chunk[i, i + n) to the open field: extends its view when the
  /// run continues it, else moves the field into carry_.  Returns false,
  /// adding nothing, when the field would pass kMaxFieldBytes; `*over`
  /// is then the global offset of the first byte past the cap.
  bool growField(const char* chunk, std::size_t i, std::size_t n,
                 std::uint64_t chunk_offset, std::uint64_t* over);
  /// Appends a completed field to the open row.
  void pushField(std::string_view view);
  /// Closes the open field as the row's next field.
  void endField();
  /// Hands the open row to `callback` and starts the next row.
  void deliverRow(const CsvRowCallback& callback);
  /// From a field start outside quotes: takes whole fields that end at
  /// a comma or LF inside the chunk as views, a word at a time, and
  /// delivers the rows they finish.  Returns the first byte of the
  /// field it stopped in (at a quote, CR or NUL, a field past
  /// kMaxFieldBytes, or the chunk's last partial word), from where the
  /// byte-exact general path goes on.
  std::size_t takeFields(const char* chunk, std::size_t i, std::size_t n,
                         const CsvRowCallback& callback);
  /// Copies every view of the open row that points into the chunk into
  /// carry_, so the row outlives the chunk.
  void carryOpenRow();

  /// Views of the open row's completed fields, [0, count_).  A field in
  /// carry_ holds an empty view until deliverRow points it there (carry_
  /// may move while the row grows).  Keeps its capacity from row to row.
  std::vector<std::string_view> views_ = std::vector<std::string_view>(1);
  std::size_t count_ = 0;
  /// Fields [0, saved_) no longer point into any chunk (carried or
  /// empty); carryOpenRow() resumes from here.
  std::size_t saved_ = 0;
  /// Completed fields of the open row that live in carry_.
  std::vector<Carried> carried_;
  /// Bytes of the open row that could not stay views of a chunk.
  std::string carry_;
  /// The open field: a view [open_data_, open_data_ + open_size_) of the
  /// current chunk, or (open_carried_) the tail of carry_ from
  /// open_begin_.
  const char* open_data_ = nullptr;
  std::size_t open_size_ = 0;
  std::size_t open_begin_ = 0;
  bool open_carried_ = false;
  bool in_quotes_ = false;
  /// A '"' was seen inside a quoted field; whether it closes the field
  /// or starts an escaped quote depends on the next byte, which may be
  /// in the next chunk.
  bool pending_quote_ = false;
  bool row_has_content_ = false;
  std::uint64_t offset_ = 0;  ///< global byte offset of the next chunk
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
