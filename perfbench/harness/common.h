// Shared plumbing of the benchmark harness: clocks, order statistics,
// process CPU and RSS probes, the span recorder of the traced run, and
// the result record every workload returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double nsToMs(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// A p95 that a host hiccup of a second or two does not move: the samples
/// are cut into up to 10 consecutive segments of at least 50, and the
/// median of the segments' p95s is returned (one segment: the plain p95).
double segmentedP95(const std::vector<double>& in_time_order);

/// Process user + system CPU time in seconds (all threads).
double processCpuSeconds();

/// Bytes the program holds on the heap: glibc's in-use arena bytes plus
/// mmapped blocks, summed over every arena.  Unlike RSS it does not move
/// with which arena a new thread inherits or when an arena is trimmed.
std::int64_t heapBytes();

/// Samples heapBytes() every millisecond on its own thread until the
/// peak is taken.
class HeapSampler {
 public:
  HeapSampler();
  ~HeapSampler();
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops sampling and returns the median over 10 equal time segments
  /// of [start_ns, end_ns) of each segment's peak.
  std::int64_t segmentedPeak(std::int64_t start_ns, std::int64_t end_ns);

 private:
  void stop();

  std::atomic<bool> stop_{false};
  std::vector<std::pair<std::int64_t, std::int64_t>> samples_;  ///< (ns, bytes)
  std::thread thread_;
};

/// Completions per second: the median over 10 equal time segments of
/// [start_ns, end_ns) of the operations finishing in each.
double segmentedRate(const std::vector<std::int64_t>& end_ns,
                     std::int64_t start_ns, std::int64_t stop_ns);

/// One timed call of the traced run.  `parent` indexes the enclosing
/// span of the same log (-1 for a root).
struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t op = -1;  ///< operation (request / window) the span serves
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans of one thread, kept in memory until the run ends.  Not
/// thread-safe: every recording thread owns its log.
class SpanLog {
 public:
  explicit SpanLog(std::int32_t tid) : tid_(tid) {}

  std::int32_t begin(const char* name, std::int64_t op);
  void end(std::int32_t index);
  /// Appends a finished span measured elsewhere (e.g. from callbacks).
  void add(const char* name, std::int64_t op, std::int64_t start_ns,
           std::int64_t end_ns, std::int32_t parent = -1);

  std::int32_t tid() const noexcept { return tid_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Duration minus the time covered by the span's direct children.
  std::vector<std::int64_t> selfTimes() const;

 private:
  std::int32_t tid_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null log records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::int64_t op)
      : log_(log), index_(log != nullptr ? log->begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Writes every span of `logs` as one Chrome trace JSON document.
bool writeChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

/// A localization document with the wall-clock fields io::resultToJson
/// embeds (per-layer seconds, stage_seconds) zeroed, so two renderings of
/// the same search compare byte for byte.
std::string canonicalDoc(const std::string& doc);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few correctness failures, printed to stderr.
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    correct = false;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Folds in the counts and failures of a per-thread result.
  void merge(const RunResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    correct = correct && other.correct;
    for (const std::string& why : other.errors) {
      if (errors.size() < 8) errors.push_back(why);
    }
  }
};

/// Prints the mean self time per operation of every span name among the
/// spans whose op satisfies `include`, with its share of `reference_ms`
/// (the stage split NOTES.md records).
void printSelfSplit(const std::vector<SpanLog>& logs,
                    const std::vector<bool>& include, double reference_ms,
                    const char* reference_name);

struct Options {
  std::string workload;
  std::uint64_t seed = 20220627;
  double seconds = 10.0;
  bool trace = false;
  /// Input-size divisor for the self-test (1 = full benchmark scale).
  int scale_down = 1;
  /// Self-test hook: flip one byte of one reference document, which the
  /// correctness gate must catch.
  bool corrupt_reference = false;
  std::string trace_out;
};

/// Client threads + connections the harness may use (nproc).
std::size_t loadThreadBudget();

}  // namespace perfbench
