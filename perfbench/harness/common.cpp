#include "common.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string_view>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double segmentedP95(const std::vector<double>& in_time_order) {
  const std::size_t n = in_time_order.size();
  const std::size_t segments = std::clamp<std::size_t>(n / 50, 1, 10);
  std::vector<double> p95s;
  for (std::size_t i = 0; i < segments; ++i) {
    const auto begin = in_time_order.begin() + static_cast<std::ptrdiff_t>(i * n / segments);
    const auto end = in_time_order.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / segments);
    p95s.push_back(quantile(std::vector<double>(begin, end), 0.95));
  }
  return median(std::move(p95s));
}

double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t heapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<std::int64_t>(info.uordblks + info.hblkhd);
}

HeapSampler::HeapSampler() {
  samples_.reserve(1 << 16);
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      samples_.emplace_back(nowNs(), heapBytes());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

HeapSampler::~HeapSampler() { stop(); }

void HeapSampler::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

namespace {

constexpr int kSegments = 10;

/// Segment of t within [start, stop) cut into kSegments, or -1.
int segmentOf(std::int64_t t, std::int64_t start, std::int64_t stop) {
  if (t < start || t >= stop) return -1;
  return static_cast<int>((t - start) * kSegments / (stop - start));
}

}  // namespace

std::int64_t HeapSampler::segmentedPeak(std::int64_t start_ns,
                                        std::int64_t end_ns) {
  stop();
  std::vector<double> peaks(kSegments, 0.0);
  for (const auto& [t, bytes] : samples_) {
    const int segment = segmentOf(t, start_ns, end_ns);
    if (segment < 0) continue;
    auto& peak = peaks[static_cast<std::size_t>(segment)];
    peak = std::max(peak, static_cast<double>(bytes));
  }
  std::erase(peaks, 0.0);
  return static_cast<std::int64_t>(median(std::move(peaks)));
}

double segmentedRate(const std::vector<std::int64_t>& end_ns,
                     std::int64_t start_ns, std::int64_t stop_ns) {
  std::vector<double> counts(kSegments, 0.0);
  for (const std::int64_t t : end_ns) {
    const int segment = segmentOf(t, start_ns, stop_ns);
    if (segment >= 0) counts[static_cast<std::size_t>(segment)] += 1.0;
  }
  const double seconds = nsToMs(stop_ns - start_ns) * 1e-3 / kSegments;
  return median(std::move(counts)) / seconds;
}

std::int32_t SpanLog::begin(const char* name, std::int64_t op) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  span.start_ns = nowNs();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanLog::end(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = nowNs();
  open_.pop_back();
}

void SpanLog::add(const char* name, std::int64_t op, std::int64_t start_ns,
                  std::int64_t end_ns, std::int32_t parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<std::int64_t> SpanLog::selfTimes() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  // Children of one parent run one after another on this thread, so
  // subtracting each child's duration removes exactly the covered time.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
    }
  }
  return self;
}

bool writeChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[512];
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
          "\"op\":%lld}}",
          first ? "" : ",\n", span.name, log->tid(),
          static_cast<double>(span.start_ns - origin) * 1e-3,
          static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i,
          span.parent, static_cast<long long>(span.op));
      out << buf;
      first = false;
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string canonicalDoc(const std::string& doc) {
  static const char* const kTimedKeys[] = {
      "\"seconds\":", "\"seconds_aggregate\":", "\"attribute_deletion\":",
      "\"search\":", "\"ranking\":"};
  std::string out = doc;
  for (const char* key : kTimedKeys) {
    const std::string needle = key;
    std::size_t pos = 0;
    while ((pos = out.find(needle, pos)) != std::string::npos) {
      const std::size_t begin = pos + needle.size();
      std::size_t end = begin;
      while (end < out.size() &&
             std::string_view("0123456789+-.eE").find(out[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      out.replace(begin, end - begin, "0");
      pos = begin;
    }
  }
  return out;
}

void printSelfSplit(const std::vector<SpanLog>& logs,
                    const std::vector<bool>& include, double reference_ms,
                    const char* reference_name) {
  std::map<std::string, double> self_ms;
  std::set<std::int64_t> ops;
  for (const SpanLog& log : logs) {
    const auto self = log.selfTimes();
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto op = static_cast<std::size_t>(spans[i].op);
      if (op >= include.size() || !include[op]) continue;
      self_ms[spans[i].name] += nsToMs(self[i]);
      ops.insert(spans[i].op);
    }
  }
  if (ops.empty()) return;
  const auto n = static_cast<double>(ops.size());
  std::printf("stage split: mean self time per op over %zu ops, share of "
              "%s = %.3f ms\n",
              ops.size(), reference_name, reference_ms);
  for (const auto& [name, total] : self_ms) {
    std::printf("  %-22s %9.3f ms  %5.1f%%\n", name.c_str(), total / n,
                reference_ms > 0 ? 100.0 * total / n / reference_ms : 0.0);
  }
}

std::size_t loadThreadBudget() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
