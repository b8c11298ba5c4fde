#include "io/csv.h"

#include <array>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "util/strings.h"

namespace rap::io {

namespace {

/// Bytes that end a run of plain field content outside quotes.
constexpr auto kUnquotedStop = [] {
  std::array<bool, 256> stop{};
  for (const unsigned char c : {',', '"', '\r', '\n', '\0'}) stop[c] = true;
  return stop;
}();

constexpr bool isUnquotedStop(char c) noexcept {
  return kUnquotedStop[static_cast<unsigned char>(c)];
}

/// Bytes that end a run of field content inside quotes.
constexpr bool isQuotedStop(char c) noexcept { return c == '"' || c == '\0'; }

}  // namespace

util::Status CsvStreamParser::feed(std::string_view chunk,
                                   const CsvRowCallback& callback) {
  auto endField = [this] {
    ++count_;
    if (count_ == fields_.size()) fields_.emplace_back();
    fields_[count_].clear();
  };
  auto endRow = [this, &endField, &callback] {
    endField();
    callback(CsvFields(fields_.data(), count_));
    count_ = 0;
    fields_[0].clear();
    row_has_content_ = false;
    row_ += 1;
  };
  auto rowError = [this](const char* what) {
    return util::Status::invalidArgument(
        util::strFormat("%s at row %llu near offset %llu", what,
                        static_cast<unsigned long long>(row_),
                        static_cast<unsigned long long>(offset_)));
  };
  // Appends chunk[i, i + n) to the open field, or points offset_ at the
  // first byte past the field cap and returns false.
  auto appendRun = [this, chunk](std::size_t i, std::size_t n) {
    std::string& field = fields_[count_];
    const std::size_t room = kMaxFieldBytes - field.size();
    if (n > room) {
      offset_ += room;
      return false;
    }
    field.append(chunk.data() + i, n);
    offset_ += n;
    return true;
  };

  std::size_t i = 0;
  while (i < chunk.size()) {
    const char c = chunk[i];
    if (pending_quote_) {
      pending_quote_ = false;
      if (c == '"') {
        // Escaped quote, possibly split across chunks.
        if (!appendRun(i, 1)) return rowError("over-long field");
        ++i;
        continue;
      }
      in_quotes_ = false;  // the pending quote closed the field
      // c falls through to ordinary processing below.
    }
    if (in_quotes_) {
      std::size_t end = i;
      while (end < chunk.size() && !isQuotedStop(chunk[end])) ++end;
      if (end > i) {
        if (!appendRun(i, end - i)) return rowError("over-long field");
        i = end;
        continue;
      }
      if (c == '\0') return rowError("embedded NUL byte");
      pending_quote_ = true;
      ++i;
      ++offset_;
      continue;
    }
    if (!isUnquotedStop(c)) {
      std::size_t end = i + 1;
      while (end < chunk.size() && !isUnquotedStop(chunk[end])) ++end;
      if (!appendRun(i, end - i)) return rowError("over-long field");
      row_has_content_ = true;
      i = end;
      continue;
    }
    switch (c) {
      case '\0':
        return rowError("embedded NUL byte");
      case '"':
        if (!fields_[count_].empty()) {
          return rowError("quote inside unquoted field");
        }
        in_quotes_ = true;
        row_has_content_ = true;
        break;
      case ',':
        endField();
        row_has_content_ = true;
        break;
      case '\r':
        break;  // swallow; LF handles the row break
      default:  // '\n'
        if (row_has_content_) {
          endRow();
        } else {
          row_ += 1;  // blank line still advances the row count
        }
        break;
    }
    ++i;
    ++offset_;
  }
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
    callback(CsvFields(fields_.data(), count_ + 1));
  }
  // Reset for reuse, keeping the field buffers' capacity.
  count_ = 0;
  fields_[0].clear();
  row_has_content_ = false;
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
