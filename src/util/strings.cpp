#include "util/strings.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

namespace {

constexpr std::uint64_t kOnes = 0x0101010101010101ull;

/// parseDoubleFast's exact short-decimal path: `-?` followed by one to
/// eight bytes of digits with at most one '.' and at least one digit
/// (every `%.6g` KPI a snapshot carries, e.g. `28.6771`).  The digits
/// are validated and converted eight at a time in one 64-bit word
/// (SWAR); the value is the integer they spell divided by 10^(digits
/// after the dot).  Both operands are exact doubles (below 10^8 < 2^53
/// and at most 10^7 < 10^22), so the one IEEE division is the correctly
/// rounded value of the decimal: bit for bit what strtod returns
/// (Clinger's fast path).  A '-' in front of a zero keeps its sign bit.
/// Declines (false) every other spelling.
bool parseShortDecimal(std::string_view text, double* out) noexcept {
  if constexpr (std::endian::native != std::endian::little) return false;
  const char* p = text.data();
  std::size_t n = text.size();
  const bool negative = n != 0 && *p == '-';
  if (negative) {
    ++p;
    --n;
  }
  if (n == 0 || n > 8) return false;
  // The n bytes in the low end of a word, the first byte lowest, loaded
  // with at most two overlapping reads that stay inside the view.
  std::uint64_t word;
  if (n >= 4) {
    std::uint32_t head;
    std::uint32_t tail;
    std::memcpy(&head, p, 4);
    std::memcpy(&tail, p + n - 4, 4);
    word = head | std::uint64_t{tail} << (8 * (n - 4));
  } else {
    const auto byte = [p](std::size_t i) {
      return std::uint64_t{static_cast<unsigned char>(p[i])} << (8 * i);
    };
    word = byte(0) | byte(n / 2) | byte(n - 1);
  }
  // The first '.' is the lowest zero byte of word ^ "........" (bytes
  // past n are zero, never dots); the bytes above it move down one,
  // which leaves the word as it is when there is no dot.  A second '.'
  // stays in and fails the digit check.
  const std::uint64_t x = word ^ (kOnes * '.');
  const std::uint64_t dots = (x - kOnes) & ~x & (kOnes * 0x80);
  const std::uint64_t below = ((dots & (0 - dots)) >> 7) - 1;
  word = (word & below) | ((word >> 8) & ~below);
  const std::size_t digits = n - (dots != 0 ? 1 : 0);
  if (digits == 0) return false;
  const std::size_t fraction =
      dots != 0 ? n - 1 - static_cast<std::size_t>(std::countr_zero(dots)) / 8
                : 0;
  // Digit values, right-aligned: the shift drops the bytes past the
  // digits and fills the front with zeros, so the most significant of
  // the eight sits in the lowest byte.  A byte above 9 (any byte that
  // was not a digit) sets its high bit here, carries or not.
  std::uint64_t value = (word ^ (kOnes * '0')) << (8 * (8 - digits));
  if (((value + kOnes * 0x76) | value) & (kOnes * 0x80)) return false;
  // Digit pairs, then quads, then all eight, by multiply-and-shift.
  value = value * 10 + (value >> 8);
  value = (((value & 0x000000FF000000FFull) * (100 + (1000000ull << 32))) +
           (((value >> 16) & 0x000000FF000000FFull) *
            (1 + (10000ull << 32)))) >>
          32;
  static constexpr double kPow10[] = {1e0, 1e1, 1e2, 1e3,
                                      1e4, 1e5, 1e6, 1e7};
  const double magnitude =
      static_cast<double>(static_cast<std::uint32_t>(value)) / kPow10[fraction];
  *out = negative ? -magnitude : magnitude;
  return true;
}

}  // namespace

bool parseDoubleFast(std::string_view text, double* out) noexcept {
  if (parseShortDecimal(text, out)) return true;
  // trim() asks the locale about each edge byte; a field that starts
  // and ends with a digit, '-' or '.' (every KPI a snapshot carries) has
  // nothing to trim.
  const auto plain = [](char c) {
    return (c >= '0' && c <= '9') || c == '-' || c == '.';
  };
  const std::string_view field =
      !text.empty() && plain(text.front()) && plain(text.back()) ? text
                                                                 : trim(text);
  // Otherwise taken only when from_chars consumes the whole field and
  // lands on a finite number above the smallest normal, where it and
  // strtod agree bit for bit (both round correctly).  Zero, subnormals, DBL_MIN
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
