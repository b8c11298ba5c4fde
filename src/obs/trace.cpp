#include "obs/trace.h"

#include "util/json_writer.h"

namespace rap::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
}  // namespace internal

void setTracingEnabled(bool enabled) noexcept {
  internal::g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

struct TraceRecorder::ThreadBuffer {
  std::uint32_t tid = 0;
  std::mutex mutex;  // writer vs. snapshot; uncontended on the hot path
  std::vector<TraceEvent> events;
};

namespace {
/// Source of TraceRecorder::id_; 0 is never handed out.
std::atomic<std::uint64_t> g_next_recorder_id{1};
}  // namespace

TraceRecorder::TraceRecorder()
    : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}
TraceRecorder::~TraceRecorder() = default;

std::uint64_t TraceRecorder::nowMicros() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceRecorder::ThreadBuffer& TraceRecorder::localBuffer() {
  // Keyed on the recorder so tests with their own recorders do not mix
  // events into the default one.  The key is the recorder's id, never
  // reused, not its address: a recorder built where a destroyed one
  // lived must not find the freed buffer.
  thread_local std::uint64_t cached_owner = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_owner == id_ && cached_buffer != nullptr) return *cached_buffer;

  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = static_cast<std::uint32_t>(buffers_.size());
  cached_owner = id_;
  cached_buffer = buffers_.back().get();
  return *cached_buffer;
}

void TraceRecorder::record(TraceEvent event) {
  ThreadBuffer& buffer = localBuffer();
  event.tid = buffer.tid;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceRecorder::snapshotEvents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> out;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::string TraceRecorder::renderChromeTrace() const {
  const auto events = snapshotEvents();
  util::JsonWriter w;
  w.beginObject();
  w.beginArray("traceEvents");
  for (const auto& event : events) {
    w.beginObject();
    w.field("name", event.name);
    w.field("cat", "rap");
    w.field("ph", std::string_view(&event.phase, 1));
    w.field("ts", event.ts_us);
    if (event.phase == 'X') {
      w.field("dur", event.dur_us);
    } else {
      w.field("id", event.flow_id);
      // Terminating flow points bind to the enclosing slice rather than
      // the next one, so the arrow lands inside the span it annotates.
      if (event.phase == 'f') w.field("bp", "e");
    }
    w.field("pid", 1);
    w.field("tid", event.tid);
    if (!event.args_json.empty()) {
      w.key("args");
      w.embed(event.args_json);
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return std::move(w).str();
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    n += buffer->events.size();
  }
  return n;
}

TraceRecorder& defaultTraceRecorder() {
  static TraceRecorder recorder;
  return recorder;
}

namespace {

/// The "args" object of a span or flow point; "" when there are none.
std::string argsObject(std::initializer_list<util::LogField> args) {
  if (args.size() == 0) return "";
  util::JsonWriter w;
  w.beginObject();
  for (const auto& arg : args) w.field(arg);
  w.endObject();
  return std::move(w).str();
}

}  // namespace

void traceFlow(char phase, const char* name, std::uint64_t flow_id,
               std::initializer_list<util::LogField> args) {
  if (!tracingEnabled()) return;
  TraceRecorder& recorder = defaultTraceRecorder();
  TraceEvent event;
  event.name = name;
  event.phase = phase;
  event.flow_id = flow_id;
  event.ts_us = recorder.nowMicros();
  event.args_json = argsObject(args);
  recorder.record(std::move(event));
}

TraceSpan::TraceSpan(const char* name,
                     std::initializer_list<util::LogField> args)
    : name_(name), active_(tracingEnabled()) {
  if (!active_) return;
  args_json_ = argsObject(args);
  start_us_ = defaultTraceRecorder().nowMicros();
}

TraceSpan::TraceSpan(TraceSpan&& other) noexcept
    : name_(other.name_),
      active_(other.active_),
      start_us_(other.start_us_),
      args_json_(std::move(other.args_json_)) {
  other.active_ = false;
}

TraceSpan::~TraceSpan() {
  if (!active_) return;
  TraceRecorder& recorder = defaultTraceRecorder();
  TraceEvent event;
  event.name = name_;
  event.ts_us = start_us_;
  const std::uint64_t end = recorder.nowMicros();
  event.dur_us = end > start_us_ ? end - start_us_ : 0;
  event.args_json = std::move(args_json_);
  recorder.record(std::move(event));
}

}  // namespace rap::obs
