// Minimal leveled logging to stderr, with a pluggable sink.
//
// Usage:
//   RAP_LOG(Info) << "localized " << n << " patterns";
//   RAP_LOG_KV(Warn, {"alarms", n}, {"state", "raised"}) << "page sent";
//
// The global level defaults to kInfo, is stored in an std::atomic (safe
// to flip from any thread; benchmarks raise it to kWarn to keep output
// tables clean), and each statement is flushed as ONE complete line with
// a single fwrite so concurrent threads never interleave partial lines.
//
// By default records render as text to stderr.  setLogSink() redirects
// every record to a LogSink instead — rap::obs::JsonLineLogSink turns
// the stream into structured JSON lines; tests install capture sinks.
#pragma once

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace rap::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

void setLogLevel(LogLevel level) noexcept;
LogLevel logLevel() noexcept;

/// One-letter tag ("D", "I", "W", "E") for the text format.
const char* logLevelName(LogLevel level) noexcept;
/// Full lowercase name ("debug", "info", ...) for structured sinks.
const char* logLevelFullName(LogLevel level) noexcept;

/// One key/value annotation on a log statement or trace span.  The
/// value keeps its type, so structured outputs emit numbers and booleans
/// unquoted and render doubles in one place (util::JsonWriter).
struct LogField {
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  LogField(std::string k, T v) : key(std::move(k)) {
    if constexpr (std::is_signed_v<T>) {
      value = static_cast<std::int64_t>(v);
    } else {
      value = static_cast<std::uint64_t>(v);
    }
  }
  LogField(std::string k, bool v) : key(std::move(k)), value(v) {}
  LogField(std::string k, double v) : key(std::move(k)), value(v) {}
  LogField(std::string k, const char* v)
      : key(std::move(k)), value(std::string(v)) {}
  LogField(std::string k, std::string v)
      : key(std::move(k)), value(std::move(v)) {}

  std::string key;
  std::variant<std::string, std::int64_t, std::uint64_t, double, bool> value;
};

/// Everything one log statement carries, handed to the active sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";  ///< basename of the source file
  int line = 0;
  std::string message;
  std::vector<LogField> fields;
};

/// Destination for log records.  Implementations must be thread-safe —
/// records arrive concurrently from any thread.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void write(const LogRecord& record) = 0;
};

/// Installs `sink` as the destination for all subsequent records
/// (nullptr restores the default text-to-stream formatter).  The sink
/// is borrowed, not owned; keep it alive while installed.
void setLogSink(LogSink* sink) noexcept;
LogSink* logSink() noexcept;

/// Stream the default text formatter writes to (stderr unless
/// overridden; tests point this at a temp file to inspect output).
void setLogStream(std::FILE* stream) noexcept;
std::FILE* logStream() noexcept;

namespace internal {

/// Collects one log statement and flushes it (to the sink, or as one
/// timestamped text line) on destruction.  Not for use outside the
/// RAP_LOG / RAP_LOG_KV macros.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  LogMessage(LogLevel level, const char* file, int line,
             std::vector<LogField> fields);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::vector<LogField> fields_;
  std::ostringstream stream_;
};

/// Swallows a log statement below the active level at zero formatting cost.
struct NullLogStream {
  template <typename T>
  NullLogStream& operator<<(const T&) {
    return *this;
  }
};

}  // namespace internal
}  // namespace rap::util

#define RAP_LOG(severity)                                                    \
  if (::rap::util::LogLevel::k##severity < ::rap::util::logLevel()) {       \
  } else                                                                     \
    ::rap::util::internal::LogMessage(::rap::util::LogLevel::k##severity,   \
                                      __FILE__, __LINE__)                    \
        .stream()

/// RAP_LOG with structured fields:
///   RAP_LOG_KV(Info, {"layer", l}, {"cuboids", n}) << "layer done";
#define RAP_LOG_KV(severity, ...)                                            \
  if (::rap::util::LogLevel::k##severity < ::rap::util::logLevel()) {       \
  } else                                                                     \
    ::rap::util::internal::LogMessage(::rap::util::LogLevel::k##severity,   \
                                      __FILE__, __LINE__, {__VA_ARGS__})     \
        .stream()
