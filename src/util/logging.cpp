#include "util/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <mutex>

#include "util/json_writer.h"

namespace rap::util {
namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<LogSink*> g_sink{nullptr};
std::atomic<std::FILE*> g_stream{nullptr};  // nullptr => stderr

// Serializes whole lines so interleaved threads stay ordered (each line
// is also flushed with a single fwrite, so even without the lock no
// partial lines could interleave).
std::mutex& logMutex() {
  static std::mutex m;
  return m;
}

}  // namespace

void setLogLevel(LogLevel level) noexcept {
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel logLevel() noexcept {
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

const char* logLevelName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarn:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

const char* logLevelFullName(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "unknown";
}

void setLogSink(LogSink* sink) noexcept {
  g_sink.store(sink, std::memory_order_release);
}

LogSink* logSink() noexcept { return g_sink.load(std::memory_order_acquire); }

void setLogStream(std::FILE* stream) noexcept {
  g_stream.store(stream, std::memory_order_release);
}

std::FILE* logStream() noexcept {
  std::FILE* stream = g_stream.load(std::memory_order_acquire);
  return stream != nullptr ? stream : stderr;
}

namespace internal {

namespace {

const char* basename(const char* file) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

}  // namespace

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(basename(file)), line_(line) {}

LogMessage::LogMessage(LogLevel level, const char* file, int line,
                       std::vector<LogField> fields)
    : level_(level),
      file_(basename(file)),
      line_(line),
      fields_(std::move(fields)) {}

LogMessage::~LogMessage() {
  LogRecord record;
  record.level = level_;
  record.file = file_;
  record.line = line_;
  record.message = stream_.str();
  record.fields = std::move(fields_);

  if (LogSink* sink = logSink(); sink != nullptr) {
    sink->write(record);
    return;
  }

  using Clock = std::chrono::system_clock;
  const auto now = Clock::to_time_t(Clock::now());
  char ts[32];
  std::tm tm_buf{};
  localtime_r(&now, &tm_buf);
  std::strftime(ts, sizeof(ts), "%H:%M:%S", &tm_buf);

  // Assemble the whole line up front and flush it with ONE fwrite so a
  // line from another thread can never split this one.
  std::string line;
  line.reserve(record.message.size() + 64);
  line += ts;
  line += " [";
  line += logLevelName(record.level);
  line += " ";
  line += record.file;
  line += ":";
  line += std::to_string(record.line);
  line += "] ";
  line += record.message;
  for (const auto& field : record.fields) {
    line += " ";
    line += field.key;
    line += "=";
    std::visit(
        [&line](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>) {
            line += v;
          } else if constexpr (std::is_same_v<T, double>) {
            line += formatNumber(v, NumberFormat::kG9);
          } else if constexpr (std::is_same_v<T, bool>) {
            line += v ? "true" : "false";
          } else {
            line += std::to_string(v);
          }
        },
        field.value);
  }
  line += "\n";

  std::lock_guard<std::mutex> lock(logMutex());
  std::fwrite(line.data(), 1, line.size(), logStream());
}

}  // namespace internal
}  // namespace rap::util
