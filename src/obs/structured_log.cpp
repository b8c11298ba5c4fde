#include "obs/structured_log.h"

#include <chrono>
#include <ctime>
#include <memory>
#include <string>

#include "util/json_writer.h"

namespace rap::obs {

std::string JsonLineLogSink::formatRecord(const util::LogRecord& record) {
  using Clock = std::chrono::system_clock;
  const auto now = Clock::to_time_t(Clock::now());
  char ts[40];
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(ts, sizeof(ts), "%Y-%m-%dT%H:%M:%S", &tm_buf);

  util::JsonWriter w;
  w.beginObject();
  w.field("ts", ts);
  w.field("level", util::logLevelFullName(record.level));
  w.field("src", std::string(record.file) + ":" + std::to_string(record.line));
  w.field("msg", record.message);
  for (const auto& field : record.fields) w.field(field);
  w.endObject();
  return std::move(w).str();
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
