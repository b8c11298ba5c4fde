#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace rap::util {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1])) != 0) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool startsWith(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view text, std::string_view suffix) noexcept {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

bool parseDoubleFast(std::string_view text, double* out) noexcept {
  // trim() asks the locale about each edge byte; a field that starts
  // and ends with a digit, '-' or '.' (every KPI a snapshot carries) has
  // nothing to trim.
  const auto plain = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '.';
  };
  const std::string_view field =
      !text.empty() && plain(text.front()) && plain(text.back()) ? text
                                                                 : trim(text);
  // Taken only when from_chars consumes the whole field and lands on a
  // finite number above the smallest normal, where it and strtod agree
  // bit for bit (both round correctly).  Zero, subnormals, DBL_MIN
  // itself (glibc's strtod reports ERANGE for a tiny input that rounds
  // up to it), inf, nan, a leading '+', hex and every partial or failed
  // parse fall through to strtod, which owns the accept set and the
  // error messages.
  double value = 0.0;
  const auto [stop, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec == std::errc() && stop == field.data() + field.size() &&
      std::isfinite(value) &&
      std::fabs(value) > std::numeric_limits<double>::min()) {
    *out = value;
    return true;
  }
  return false;
}

Result<double> parseDouble(std::string_view text) {
  // Fast path: no copy, no NUL terminator, no errno.
  double fast = 0.0;
  if (parseDoubleFast(text, &fast)) return fast;
  const std::string buf{trim(text)};
  if (buf.empty()) return Status::invalidArgument("empty number");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::outOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::invalidArgument("not a number: '" + buf + "'");
  }
  return value;
}

Result<std::int64_t> parseInt(std::string_view text) {
  const std::string buf{trim(text)};
  if (buf.empty()) return Status::invalidArgument("empty integer");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::outOfRange("integer out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::invalidArgument("not an integer: '" + buf + "'");
  }
  return static_cast<std::int64_t>(value);
}

std::string strFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string toLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace rap::util
