#include "obs/structured_log.h"

#include <chrono>
#include <ctime>
#include <memory>
#include <string>

#include "util/strings.h"

namespace rap::obs {

std::string JsonLineLogSink::formatRecord(const util::LogRecord& record) {
  using Clock = std::chrono::system_clock;
  const auto now = Clock::to_time_t(Clock::now());
  char ts[40];
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%S", &tm_buf);

  std::string out = "{\"ts\":\"";
  out += ts;
  out += "\",\"level\":\"";
  out += util::logLevelFullName(record.level);
  out += "\",\"src\":\"";
  out += util::escapeJson(record.file);
  out += ":";
  out += std::to_string(record.line);
  out += "\",\"msg\":\"";
  out += util::escapeJson(record.message);
  out += "\"";
  for (const auto& field : record.fields) {
    out += ",\"";
    out += util::escapeJson(field.key);
    out += "\":";
    if (field.quoted) {
      // Built with += only: GCC 12 misfires -Wrestrict on the
      // `const char* + std::string&&` concatenation chain here.
      out += "\"";
      out += util::escapeJson(field.value);
      out += "\"";
    } else {
      out += field.value;
    }
  }
  out += "}";
  return out;
}

void JsonLineLogSink::write(const util::LogRecord& record) {
  const std::string line = formatRecord(record) + "\n";
  std::lock_guard<std::mutex> lock(mutex_);
  std::fwrite(line.data(), 1, line.size(), out_);
}

void enableJsonLogging(std::FILE* out) {
  static std::unique_ptr<JsonLineLogSink> sink;
  if (out == nullptr) {
    util::setLogSink(nullptr);
    sink.reset();
    return;
  }
  auto next = std::make_unique<JsonLineLogSink>(out);
  util::setLogSink(next.get());
  sink = std::move(next);  // the previous sink is freed after the swap
}

}  // namespace rap::obs
