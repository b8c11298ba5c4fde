// Small string helpers shared by the CSV layer and the CLI tools.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rap::util {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text) noexcept;

bool startsWith(std::string_view text, std::string_view prefix) noexcept;
bool endsWith(std::string_view text, std::string_view suffix) noexcept;

/// Strict parse of a double / integer; rejects trailing garbage.  Both
/// trim ASCII whitespace first.  parseDouble accepts exactly what strtod
/// accepts over the whole trimmed field (hex, inf and nan included) and
/// returns strtod's value; a result out of range is kOutOfRange.
Result<double> parseDouble(std::string_view text);
Result<std::int64_t> parseInt(std::string_view text);

/// parseDouble's fast path alone: true, with `*out` set to the value
/// parseDouble returns, when `text` is a short decimal (`-?` and at most
/// eight bytes of digits with at most one '.', read eight digits at a
/// time and divided once by an exact power of ten) or, trimmed, a number
/// std::from_chars reads whole and strtod reads bit for bit the same;
/// false means "ask parseDouble", which settles the rest and owns the
/// error messages.  Reads no byte outside `text`.  Builds no Result,
/// Status or string.
bool parseDoubleFast(std::string_view text, double* out) noexcept;

/// printf-style formatting into a std::string.
std::string strFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Lower-case an ASCII string.
std::string toLower(std::string_view text);

}  // namespace rap::util
