#include "util/json_writer.h"

#include <cmath>
#include <cstdio>
#include <variant>

#include "util/status.h"
#include "util/strings.h"

namespace rap::util {

namespace {

void appendEscaped(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(text, run, text.size() - run);
}

void appendNumber(std::string& out, double number, NumberFormat format) {
  const char* spec = "%.12g";
  switch (format) {
    case NumberFormat::kG12:
      break;
    case NumberFormat::kMetric:
      if (std::isfinite(number) && number == std::floor(number) &&
          std::fabs(number) < 1e15) {
        spec = "%.0f";
        break;
      }
      [[fallthrough]];
    case NumberFormat::kG9:
      spec = "%.9g";
      break;
    case NumberFormat::kFixed0:
      spec = "%.0f";
      break;
    case NumberFormat::kFixed3:
      spec = "%.3f";
      break;
    case NumberFormat::kFixed6:
      spec = "%.6f";
      break;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), spec, number);
  if (n >= 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    out += strFormat(spec, number);  // a huge fixed-point value
  }
}

}  // namespace

std::string escapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  appendEscaped(out, text);
  return out;
}

std::string formatNumber(double number, NumberFormat format) {
  std::string out;
  appendNumber(out, number, format);
  return out;
}

void JsonWriter::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its key directly
  }
  if (!has_element_.empty()) {
    if (has_element_.back()) out_ += ',';
    has_element_.back() = true;
  }
}

void JsonWriter::beginObject() {
  prefix();
  out_ += '{';
  has_element_.push_back(false);
}

void JsonWriter::endObject() {
  RAP_CHECK_MSG(!has_element_.empty(), "endObject without beginObject");
  has_element_.pop_back();
  out_ += '}';
}

void JsonWriter::beginArray() {
  prefix();
  out_ += '[';
  has_element_.push_back(false);
}

void JsonWriter::endArray() {
  RAP_CHECK_MSG(!has_element_.empty(), "endArray without beginArray");
  has_element_.pop_back();
  out_ += ']';
}

void JsonWriter::key(std::string_view name) {
  RAP_CHECK_MSG(!pending_key_, "two keys in a row");
  prefix();
  out_ += '"';
  appendEscaped(out_, name);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::value(std::string_view text) {
  prefix();
  out_ += '"';
  appendEscaped(out_, text);
  out_ += '"';
}

void JsonWriter::value(double number, NumberFormat format) {
  if (!std::isfinite(number)) {
    nullValue();
    return;
  }
  prefix();
  appendNumber(out_, number, format);
}

void JsonWriter::field(const LogField& field) {
  key(field.key);
  std::visit(
      [this](const auto& v) {
        if constexpr (std::is_same_v<std::decay_t<decltype(v)>, double>) {
          value(v, NumberFormat::kG9);
        } else {
          value(v);
        }
      },
      field.value);
}

}  // namespace rap::util
