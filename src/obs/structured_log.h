// Structured (JSON lines) output for rap::util logging.
//
// Installing a JsonLineLogSink turns every RAP_LOG / RAP_LOG_KV
// statement into one newline-delimited JSON object:
//
//   {"ts":"2022-06-27T10:31:05","level":"info","src":"monitor.cpp:98",
//    "msg":"alarm raised","alarms":3,"state":"raised"}
//
// Field keys come straight from RAP_LOG_KV; numeric and boolean values
// are emitted unquoted, non-finite numbers as null.  Each record is
// written with a single fwrite, so lines from concurrent threads never
// interleave.
#pragma once

#include <cstdio>
#include <mutex>

#include "util/logging.h"

namespace rap::obs {

class JsonLineLogSink final : public util::LogSink {
 public:
  explicit JsonLineLogSink(std::FILE* out = stderr) : out_(out) {}

  void write(const util::LogRecord& record) override;

  /// The JSON object for one record, without the trailing newline
  /// (exposed for tests and for callers buffering their own lines).
  static std::string formatRecord(const util::LogRecord& record);

 private:
  std::FILE* out_;
  std::mutex mutex_;
};

/// Convenience: installs a process-lifetime JsonLineLogSink writing to
/// `out`.  Calling again rebinds the stream; enableJsonLogging(nullptr)
/// restores the default text formatter.
void enableJsonLogging(std::FILE* out = stderr);

}  // namespace rap::obs
