// Scoped trace spans for the localization pipeline.
//
//   RAP_TRACE_SPAN("localize");
//   RAP_TRACE_SPAN("search/layer", {{"layer", l}});
//
// Each span records one Chrome trace-event "complete" event (ph:"X")
// with the wall-clock interval of its enclosing scope; nesting falls
// out of interval containment per thread, so chrome://tracing (or
// Perfetto) renders the usual flame graph.  Events land in per-thread
// buffers of the process-wide TraceRecorder — one uncontended mutex
// push per span close, no cross-thread contention on the hot path.
//
// Tracing is off by default.  The RAP_TRACE_SPAN macro evaluates its
// argument expressions ONLY when tracing is enabled (the ternary in the
// macro), so a disabled span costs one relaxed atomic load, a branch,
// and an inert stack object.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/logging.h"

namespace rap::obs {

/// One finished span or flow point.  `name` points at a string literal
/// (the emitting macros/functions only ever pass literals), timestamps
/// are microseconds since the recorder's construction.
struct TraceEvent {
  const char* name = "";
  /// Chrome trace phase: 'X' complete span (the default), or a flow
  /// event — 's' start, 't' step, 'f' end — linking spans across
  /// threads (see traceFlow).
  char phase = 'X';
  std::uint64_t ts_us = 0;
  std::uint64_t dur_us = 0;       ///< 'X' only
  std::uint64_t flow_id = 0;      ///< flow events only; 0 = none
  std::uint32_t tid = 0;
  std::string args_json;  ///< pre-rendered "{...}" or empty
};

/// Collects spans from every thread; exports Chrome trace-event JSON.
/// Per-thread buffers outlive their threads, so events survive worker
/// pool teardown until export.
class TraceRecorder {
 public:
  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;
  ~TraceRecorder();

  /// Microseconds since this recorder was constructed.
  std::uint64_t nowMicros() const noexcept;

  /// Appends one finished span to the calling thread's buffer.
  void record(TraceEvent event);

  /// Copy of every recorded event (unordered across threads).
  std::vector<TraceEvent> snapshotEvents() const;

  /// {"traceEvents":[...]} — loadable in chrome://tracing / Perfetto.
  std::string renderChromeTrace() const;

  /// Drops all recorded events (buffers stay registered).
  void clear();

  std::size_t eventCount() const;

 private:
  struct ThreadBuffer;
  ThreadBuffer& localBuffer();

  const std::uint64_t id_;  ///< unique per recorder; keys the thread cache
  mutable std::mutex mutex_;  // guards buffers_ (the list, not entries)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::chrono::steady_clock::time_point epoch_;
};

/// The recorder RAP_TRACE_SPAN publishes to.
TraceRecorder& defaultTraceRecorder();

namespace internal {
extern std::atomic<bool> g_tracing_enabled;
}  // namespace internal

inline bool tracingEnabled() noexcept {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed);
}
void setTracingEnabled(bool enabled) noexcept;

/// Records one flow point at "now" on the calling thread.  Flow events
/// with the same (name, id) chain into one arrow sequence in Perfetto /
/// chrome://tracing, each point binding to the 'X' span enclosing its
/// timestamp on its thread — that is how one window's journey renders
/// as a connected lane across the producer, sealer, and pool threads.
/// `phase` is 's' (start), 't' (step), or 'f' (end).  No-op (one
/// relaxed load + branch) while tracing is disabled.
void traceFlow(char phase, const char* name, std::uint64_t flow_id,
               std::initializer_list<util::LogField> args = {});

/// RAII span; use via RAP_TRACE_SPAN.  A default-constructed span is
/// inert (that is the disabled-tracing arm of the macro).
class TraceSpan {
 public:
  TraceSpan() noexcept = default;
  explicit TraceSpan(const char* name)
      : TraceSpan(name, std::initializer_list<util::LogField>{}) {}
  TraceSpan(const char* name, std::initializer_list<util::LogField> args);
  TraceSpan(TraceSpan&& other) noexcept;
  TraceSpan& operator=(TraceSpan&&) = delete;
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan();

 private:
  const char* name_ = nullptr;
  bool active_ = false;
  std::uint64_t start_us_ = 0;
  std::string args_json_;
};

}  // namespace rap::obs

#define RAP_OBS_CONCAT_INNER(a, b) a##b
#define RAP_OBS_CONCAT(a, b) RAP_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope.  Arguments
/// after the name are util::LogField initializers: {{"layer", l}}.
/// Argument expressions are not evaluated when tracing is disabled.
#define RAP_TRACE_SPAN(...)                                          \
  ::rap::obs::TraceSpan RAP_OBS_CONCAT(rap_trace_span_, __LINE__) =  \
      ::rap::obs::tracingEnabled() ? ::rap::obs::TraceSpan(__VA_ARGS__) \
                                   : ::rap::obs::TraceSpan()
