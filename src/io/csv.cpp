#include "io/csv.h"

#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "util/strings.h"

namespace rap::io {

namespace {

// SWAR stop-byte scan (Langdale & Lemire, "Parsing Gigabytes of JSON per
// Second"): test eight bytes per step with plain 64-bit arithmetic.
constexpr std::uint64_t kOnes = 0x0101010101010101ull;
constexpr std::uint64_t kHighBits = 0x8080808080808080ull;

constexpr std::uint64_t broadcast(unsigned char c) noexcept {
  return kOnes * c;
}

/// Bytes that end a run of field content outside quotes.
constexpr auto kUnquotedStop = [] {
  std::array<bool, 256> stop{};
  for (const unsigned char c : {',', '"', '\r', '\n', '\0'}) stop[c] = true;
  return stop;
}();

constexpr bool isUnquotedStop(char c) noexcept {
  return kUnquotedStop[static_cast<unsigned char>(c)];
}

/// Marks (0x80) every byte of `word` below 0x2D, the range that holds
/// all five unquoted stop bytes, and so over-approximates them.  The
/// first mark is exact; a later one may be a byte equal to 0x2D that a
/// borrow reached, so callers check each mark against kUnquotedStop.
constexpr std::uint64_t lowBytes(std::uint64_t word) noexcept {
  return (word - broadcast(0x2D)) & ~word & kHighBits;
}

/// 0x80 in each byte of `word` that is zero, 0x00 elsewhere.  Exact:
/// adding 0x7F to the low seven bits never carries into the next byte.
constexpr std::uint64_t zeroBytes(std::uint64_t word) noexcept {
  return ~(((word & ~kHighBits) + ~kHighBits) | word) & kHighBits;
}

/// Marks exactly the bytes that end a run inside quotes: '"' and NUL.
constexpr std::uint64_t quotedStops(std::uint64_t word) noexcept {
  return zeroBytes(word ^ broadcast('"')) | zeroBytes(word);
}

/// Index, within the word as loaded from memory, of its first mark.
inline std::size_t firstMarked(std::uint64_t marks) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::size_t>(std::countr_zero(marks)) / 8;
  } else {
    return static_cast<std::size_t>(std::countl_zero(marks)) / 8;
  }
}

/// `marks` without its first mark.
inline std::uint64_t dropFirst(std::uint64_t marks) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return marks & (marks - 1);
  } else {
    return marks & ~(std::uint64_t{1} << (63 - std::countl_zero(marks)));
  }
}

/// The stop byte in `word` (loaded from data + at) closest to its
/// start, as an index into data, or `none`.
template <bool kQuoted>
std::size_t firstStop(const char* data, std::size_t at, std::uint64_t word,
                      std::size_t none) noexcept {
  if constexpr (kQuoted) {
    const std::uint64_t marks = quotedStops(word);
    return marks == 0 ? none : at + firstMarked(marks);
  } else {
    for (std::uint64_t marks = lowBytes(word); marks != 0;
         marks = dropFirst(marks)) {
      const std::size_t stop = at + firstMarked(marks);
      if (isUnquotedStop(data[stop])) return stop;
    }
    return none;
  }
}

/// First index in [i, n) whose byte is a stop byte, or n.  The chunk's
/// last partial word is padded with a byte that is never a stop.
template <bool kQuoted>
std::size_t scanToStop(const char* data, std::size_t i,
                       std::size_t n) noexcept {
  std::uint64_t word;
  for (; i + sizeof(word) <= n; i += sizeof(word)) {
    std::memcpy(&word, data + i, sizeof(word));
    const std::size_t stop = firstStop<kQuoted>(data, i, word, n);
    if (stop != n) return stop;
  }
  if (i == n) return n;
  char tail[sizeof(word)];
  std::memset(tail, 'a', sizeof(tail));
  std::memcpy(tail, data + i, n - i);
  std::memcpy(&word, tail, sizeof(word));
  const std::size_t stop = firstStop<kQuoted>(tail, 0, word, sizeof(word));
  return stop == sizeof(word) ? n : i + stop;
}

}  // namespace

bool CsvStreamParser::growField(const char* chunk, std::size_t i,
                                std::size_t n, std::uint64_t chunk_offset,
                                std::uint64_t* over) {
  const std::size_t room = kMaxFieldBytes - open_size_;
  if (n > room) {
    *over = chunk_offset + i + room;
    return false;
  }
  if (open_size_ == 0) {
    open_data_ = chunk + i;
  } else if (open_carried_) {
    carry_.append(chunk + i, n);
  } else if (open_data_ + open_size_ != chunk + i) {
    // Not contiguous with the view (an escaped quote, or text after a
    // closing quote): the field continues in carry_.
    open_begin_ = carry_.size();
    carry_.append(open_data_, open_size_);
    carry_.append(chunk + i, n);
    open_carried_ = true;
  }
  open_size_ += n;
  return true;
}

void CsvStreamParser::pushField(std::string_view view) {
  views_[count_] = view;
  ++count_;
  if (count_ == views_.size()) views_.emplace_back();
}

void CsvStreamParser::endField() {
  if (open_carried_) {
    carried_.push_back({count_, open_begin_, open_size_});
    pushField({});
  } else {
    pushField(open_size_ == 0 ? std::string_view()
                              : std::string_view(open_data_, open_size_));
  }
  open_size_ = 0;
  open_carried_ = false;
}

void CsvStreamParser::deliverRow(const CsvRowCallback& callback) {
  for (const Carried& field : carried_) {
    views_[field.index] = {carry_.data() + field.begin, field.size};
  }
  callback(CsvFields(views_.data(), count_));
  count_ = 0;
  saved_ = 0;
  carried_.clear();
  carry_.clear();
  row_has_content_ = false;
}

void CsvStreamParser::carryOpenRow() {
  bool appended = false;
  for (std::size_t k = saved_; k < count_; ++k) {
    const std::string_view field = views_[k];
    if (field.data() == nullptr) continue;  // empty, or already carried
    carried_.push_back({k, carry_.size(), field.size()});
    carry_.append(field);
    views_[k] = {};
    appended = true;
  }
  saved_ = count_;
  // The open field must end up at the tail of carry_, where growField
  // extends it.
  if (open_size_ == 0 || (open_carried_ && !appended)) return;
  carry_.reserve(carry_.size() + open_size_);  // keeps a carried source put
  const char* source = open_carried_ ? carry_.data() + open_begin_ : open_data_;
  open_begin_ = carry_.size();
  carry_.append(source, open_size_);
  open_carried_ = true;
}

std::size_t CsvStreamParser::takeFields(const char* data, std::size_t i,
                                        std::size_t n,
                                        const CsvRowCallback& callback) {
  // The row under construction stays in locals (stores through views
  // could otherwise alias the members) and is written back before every
  // delivery and on return.
  std::string_view* views = views_.data();
  std::size_t count = count_;
  bool has_content = row_has_content_;
  std::size_t field = i;  // first byte of the field being scanned
  const auto resumeAt = [&](std::size_t at) {
    count_ = count;
    row_has_content_ = has_content;
    return at;
  };
  std::uint64_t word;
  for (std::size_t at = i; at + sizeof(word) <= n; at += sizeof(word)) {
    std::memcpy(&word, data + at, sizeof(word));
    for (std::uint64_t marks = lowBytes(word); marks != 0;
         marks = dropFirst(marks)) {
      const std::size_t stop = at + firstMarked(marks);
      const char c = data[stop];
      const bool plain_end = c == ',' || c == '\n';
      if (!plain_end && !isUnquotedStop(c)) continue;  // a mark, no stop
      // A quote, CR or NUL, or a field past the cap: the general path
      // takes this field from its first byte.
      if (!plain_end || stop - field > kMaxFieldBytes) return resumeAt(field);
      const std::string_view view =
          stop == field ? std::string_view()
                        : std::string_view(data + field, stop - field);
      field = stop + 1;
      if (c == '\n' && view.empty() && !has_content) {
        row_ += 1;  // a blank line still advances the row count
        continue;
      }
      views[count] = view;
      if (++count == views_.size()) {
        views_.emplace_back();
        views = views_.data();
      }
      has_content = true;
      if (c == '\n') {
        count_ = count;
        deliverRow(callback);
        row_ += 1;
        count = 0;
        has_content = false;
      }
    }
  }
  return resumeAt(field);
}

util::Status CsvStreamParser::feed(std::string_view chunk,
                                   const CsvRowCallback& callback) {
  const char* const data = chunk.data();
  const std::size_t n = chunk.size();
  const std::uint64_t base = offset_;
  auto rowError = [this](const char* what, std::uint64_t offset) {
    return util::Status::invalidArgument(
        util::strFormat("%s at row %llu near offset %llu", what,
                        static_cast<unsigned long long>(row_),
                        static_cast<unsigned long long>(offset)));
  };

  std::uint64_t over = 0;
  std::size_t i = 0;
  while (i < n) {
    if (pending_quote_) {
      pending_quote_ = false;
      if (data[i] == '"') {
        // Escaped quote, possibly split across chunks.
        if (!growField(data, i, 1, base, &over)) {
          return rowError("over-long field", over);
        }
        ++i;
        continue;
      }
      in_quotes_ = false;  // the pending quote closed the field
      // data[i] falls through to ordinary processing below.
    }
    if (in_quotes_) {
      const std::size_t end = scanToStop<true>(data, i, n);
      if (end > i) {
        if (!growField(data, i, end - i, base, &over)) {
          return rowError("over-long field", over);
        }
        i = end;
        if (i == n) break;
      }
      if (data[i] == '\0') return rowError("embedded NUL byte", base + i);
      pending_quote_ = true;
      ++i;
      continue;
    }
    if (open_size_ == 0) {
      // At a field start: whole plain fields go by a word at a time.
      i = takeFields(data, i, n, callback);
      if (i == n) break;
    }
    switch (data[i]) {
      case ',':
        endField();
        row_has_content_ = true;
        break;
      case '\n':
        if (row_has_content_) {
          endField();
          deliverRow(callback);
        }
        row_ += 1;  // a blank line still advances the row count
        break;
      case '\r':
        break;  // swallow; LF handles the row break
      case '"':
        if (open_size_ != 0) {
          return rowError("quote inside unquoted field", base + i);
        }
        in_quotes_ = true;
        row_has_content_ = true;
        break;
      case '\0':
        return rowError("embedded NUL byte", base + i);
      default: {
        const std::size_t end = scanToStop<false>(data, i + 1, n);
        if (!growField(data, i, end - i, base, &over)) {
          return rowError("over-long field", over);
        }
        row_has_content_ = true;
        i = end;
        continue;
      }
    }
    ++i;
  }
  // The chunk is the caller's: what of the open row points into it
  // moves to carry_ before feed returns.
  carryOpenRow();
  offset_ = base + n;
  return util::Status::ok();
}

util::Status CsvStreamParser::finish(const CsvRowCallback& callback) {
  if (pending_quote_) {
    // A quote at end of input closes its field.
    pending_quote_ = false;
    in_quotes_ = false;
  }
  if (in_quotes_) {
    return util::Status::invalidArgument("unterminated quoted field");
  }
  if (row_has_content_) {
    endField();
    deliverRow(callback);
  }
  // Reset for reuse, keeping the buffers' capacity.
  offset_ = 0;
  row_ = 1;
  return util::Status::ok();
}

util::Status streamCsv(std::string_view text, const CsvRowCallback& callback) {
  CsvStreamParser parser;
  RAP_RETURN_IF_ERROR(parser.feed(text, callback));
  return parser.finish(callback);
}

util::Result<std::vector<CsvRow>> parseCsv(const std::string& text) {
  std::vector<CsvRow> rows;
  const util::Status status = streamCsv(
      text, [&rows](CsvFields row) { rows.emplace_back(row.begin(), row.end()); });
  if (!status.isOk()) return status;
  return rows;
}

util::Result<std::vector<CsvRow>> readCsvFile(const std::string& path) {
  std::vector<CsvRow> rows;
  const util::Status status = streamCsvFile(
      path, [&rows](CsvFields row) { rows.emplace_back(row.begin(), row.end()); });
  if (!status.isOk()) return status;
  return rows;
}

util::Status streamCsvFile(const std::string& path,
                           const CsvRowCallback& callback) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::notFound("cannot open '" + path + "'");
  }
  CsvStreamParser parser;
  std::vector<char> buffer(1 << 16);
  while (in) {
    RAP_RETURN_IF_ERROR(RAP_FAULT_STATUS("io.csv_chunk"));
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize n = in.gcount();
    if (n <= 0) break;
    const util::Status status =
        parser.feed({buffer.data(), static_cast<std::size_t>(n)}, callback);
    if (!status.isOk()) return status;
  }
  return parser.finish(callback);
}

namespace {

bool needsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string quoteField(const std::string& field) {
  if (!needsQuoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string writeCsv(const std::vector<CsvRow>& rows) {
  std::string out;
  for (const auto& row : rows) {
    // A row of exactly one empty field would serialize as a blank line
    // and be skipped on re-read; quote it so it round-trips.
    if (row.size() == 1 && row[0].empty()) {
      out += "\"\"\n";
      continue;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ',';
      out += quoteField(row[i]);
    }
    out += '\n';
  }
  return out;
}

util::Status writeCsvFile(const std::string& path,
                          const std::vector<CsvRow>& rows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::notFound("cannot open '" + path + "' for writing");
  }
  out << writeCsv(rows);
  if (!out) {
    return util::Status::internal("write to '" + path + "' failed");
  }
  return util::Status::ok();
}

}  // namespace rap::io
