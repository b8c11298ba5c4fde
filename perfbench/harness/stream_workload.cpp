// stream_replay: the paper's Fig. 1 online path with no HTTP and no
// parsing.  One producer thread replays windows of leaf events into an
// in-process StreamEngine (tenant-spec streaming defaults, trigger =
// anomalous-window, Table I cdn schema) open loop: chunk j of window w
// is due at t0 + (w * chunks + j) / (rate * chunks), whether or not the
// engine kept up.  Windows alternate between healthy (f = v) and
// failing (a seeded RAPMD case).
//
// A window can be sealed only once an event past its watermark arrives:
// the first chunk of the window kLatenessWindows + 1 later.  Latency runs
// from that chunk's send to the localization callback (failing windows)
// or the window callback (healthy windows, which detection clears).  A
// send the engine held back (its previous ingestBatch returned after the
// chunk was due) counts from the due time, so a stall is charged to the
// windows behind it; the configured lateness and the generator's own
// wake-up jitter are not.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "core/rapminer.h"
#include "core/search.h"
#include "detect/detector.h"
#include "inputs.h"
#include "io/json.h"
#include "stream/engine.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rap;

/// Windows per second the producer offers: half the highest rate at which
/// the producer still kept its schedule on a 4-core box (NOTES.md).
constexpr double kWindowRate = 70.0;
/// Allowed lateness, in windows (examples/stream_replay paces with the
/// same slack).
constexpr std::int64_t kLatenessWindows = 10;
/// ingestBatch calls per window.
constexpr std::int32_t kChunks = 8;
/// Distinct failing cases the replay cycles through.
constexpr std::int32_t kCases = 48;

stream::StreamConfig engineConfig() {
  // What parseTenantSpec yields for {"schema": {"builtin": "cdn"},
  // "streaming": {"trigger": "anomalous-window"}}.
  stream::StreamConfig config;
  config.trigger = stream::TriggerPolicy::kAnomalousWindow;
  config.miner = core::RapMiner::Builder().tCp(0.0005).tConf(0.8).build()->config();
  config.detect_threshold = 0.095;
  config.top_k = 5;
  // Slack instead of the default 0.  With 0, a shard that drained its
  // queue just before the watermark passed a window seals that window
  // without the events still queued behind the drain and drops them as
  // late (NOTES.md); paced at this rate that hit 2 of 5 runs.  The slack
  // makes it need a shard stalled for kLatenessWindows windows.
  config.allowed_lateness = kLatenessWindows * config.window_width;
  return config;
}

/// Per-window callback timestamps, indexed by epoch - first measured.
struct WindowTimes {
  explicit WindowTimes(std::size_t n)
      : sealed(n), localized(n), localize_count(n), dispatched(n) {}
  std::int64_t first_epoch = 0;
  std::vector<std::atomic<std::int64_t>> sealed;
  std::vector<std::atomic<std::int64_t>> localized;
  std::vector<std::atomic<int>> localize_count;
  std::vector<std::atomic<bool>> dispatched;

  std::atomic<std::int64_t>* slot(std::vector<std::atomic<std::int64_t>>& v,
                                  std::int64_t epoch) {
    const std::int64_t i = epoch - first_epoch;
    return i >= 0 && i < static_cast<std::int64_t>(v.size())
               ? &v[static_cast<std::size_t>(i)]
               : nullptr;
  }
};

struct Inputs {
  dataset::Schema schema = dataset::Schema::cdn();
  std::vector<std::vector<stream::StreamEvent>> failing;  ///< per case
  std::vector<std::vector<stream::StreamEvent>> healthy;  ///< f = v
  std::vector<std::string> reference;                     ///< per case
};

const std::vector<stream::StreamEvent>& windowEvents(const Inputs& inputs,
                                                     std::size_t w) {
  const std::size_t c = (w / 2) % inputs.failing.size();
  return w % 2 == 1 ? inputs.failing[c] : inputs.healthy[c];
}

struct Phase {
  std::vector<double> miss_ms;   ///< failing windows
  std::vector<double> hit_ms;    ///< healthy windows
  std::vector<double> lateness_ms;
  std::vector<double> ingest_us;
  std::vector<double> seal_ms;
  std::vector<double> localize_ms;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t heap_peak = 0;
  std::size_t windows = 0;
  stream::StreamStats stats;
};

/// Feeds window `epoch` with events `events` at full speed (set-up).
void feedNow(stream::StreamEngine& engine,
             const std::vector<stream::StreamEvent>& events,
             std::int64_t epoch, std::int64_t width) {
  std::vector<stream::StreamEvent> batch = events;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].ts = epoch * width + static_cast<std::int64_t>(i) % width;
  }
  engine.ingestBatch(std::move(batch));
}

Phase runPhase(const Inputs& inputs, std::size_t windows, int setup_rounds,
               SpanLog* log, RunResult& result) {
  const stream::StreamConfig config = engineConfig();
  const std::int64_t width = config.window_width;
  // The warm-up fills epochs [0, kWarmupWindows); healthy windows past
  // the measured ones seal the last measured windows.
  constexpr std::int64_t kWarmupWindows = kLatenessWindows + 2;
  const std::size_t sent = windows + kLatenessWindows + 1;
  Phase phase;
  WindowTimes times(windows);
  times.first_epoch = kWarmupWindows;

  const std::int64_t heap_base = heapBytes();
  HeapSampler heap;

  // Set-up: construct, start, push one failing and one healthy window at
  // full speed and drain them.  Repeated; the last engine is measured.
  std::unique_ptr<stream::StreamEngine> engine;
  std::vector<double> setups;
  for (int round = 0; round < setup_rounds; ++round) {
    if (engine) engine->stop();
    engine.reset();
    const std::int64_t start = nowNs();
    engine = std::make_unique<stream::StreamEngine>(inputs.schema, config);
    engine->setWindowCallback([&times](const stream::StreamEngine::WindowInfo& info) {
      const std::int64_t now = nowNs();
      if (auto* slot = times.slot(times.sealed, info.epoch)) {
        slot->store(now);
        times.dispatched[static_cast<std::size_t>(info.epoch - times.first_epoch)]
            .store(info.localize_dispatched);
      }
    });
    engine->setLocalizationCallback(
        [&times](const stream::StreamEngine::Localization& loc) {
          const std::int64_t now = nowNs();
          if (auto* slot = times.slot(times.localized, loc.epoch)) {
            slot->store(now);
            times.localize_count[static_cast<std::size_t>(loc.epoch - times.first_epoch)]++;
          }
        });
    engine->start();
    // The last warm-up window seals window 0; the others stay open until
    // measured chunks seal them (drain() would seal every future epoch).
    feedNow(*engine, inputs.failing[0], 0, width);
    for (std::int64_t e = 1; e < kWarmupWindows; ++e) {
      feedNow(*engine, inputs.healthy[static_cast<std::size_t>(e) % inputs.healthy.size()], e, width);
    }
    const std::int64_t give_up = nowNs() + 10'000'000'000;
    while (engine->stats().localizations < 1 && nowNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (engine->stats().localizations < 1) result.fail("warm-up window never localized");
    setups.push_back(nsToMs(nowNs() - start) * 1e-3);
  }
  phase.setup_s = median(setups);
  (void)engine->takeLocalizations();

  std::vector<std::int64_t> start_first(sent);
  std::vector<std::int64_t> ingested_first(sent);
  std::int64_t previous_return = 0;
  const double cpu_start = processCpuSeconds();
  const std::int64_t t0 = nowNs() + 2'000'000;
  const double chunk_period_ns = 1e9 / (kWindowRate * kChunks);
  for (std::size_t w = 0; w < sent; ++w) {
    const std::int64_t epoch = kWarmupWindows + static_cast<std::int64_t>(w);
    const auto& events = windowEvents(inputs, w);
    for (std::int32_t j = 0; j < kChunks; ++j) {
      const std::size_t lo = events.size() * static_cast<std::size_t>(j) / kChunks;
      const std::size_t hi = events.size() * static_cast<std::size_t>(j + 1) / kChunks;
      std::vector<stream::StreamEvent> chunk(events.begin() + static_cast<std::ptrdiff_t>(lo),
                                             events.begin() + static_cast<std::ptrdiff_t>(hi));
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        chunk[i].ts = epoch * width + static_cast<std::int64_t>(lo + i) % width;
      }
      const auto due = t0 + static_cast<std::int64_t>(
          static_cast<double>(w * kChunks + static_cast<std::size_t>(j)) * chunk_period_ns);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(due)));
      const std::int64_t call = nowNs();
      const stream::PushResult pushed = engine->ingestBatch(std::move(chunk));
      const std::int64_t ret = nowNs();
      phase.lateness_ms.push_back(nsToMs(call - due));
      // A send the engine delayed (the previous ingestBatch returned past
      // this one's due time) counts from its due time; otherwise from the
      // call, so the generator's own wake-up jitter is not charged.
      const std::int64_t start = previous_return > due ? due : call;
      previous_return = ret;
      phase.ingest_us.push_back(nsToMs(ret - call) * 1e3);
      if (log != nullptr) log->add("stream.ingest", static_cast<std::int64_t>(w), call, ret);
      if (pushed.accepted != hi - lo) {
        result.fail("window " + std::to_string(w) + ": ingest accepted " +
                    std::to_string(pushed.accepted) + " of " +
                    std::to_string(hi - lo));
      }
      if (j == 0) {
        start_first[w] = start;
        ingested_first[w] = ret;
      }
    }
  }
  engine->drain();
  phase.cpu_s = processCpuSeconds() - cpu_start;
  phase.stats = engine->stats();
  auto localizations = engine->takeLocalizations();
  engine->stop();

  std::int64_t last_done = t0;
  for (std::size_t w = 0; w < windows; ++w) {
    ++result.attempted;
    const bool failing = w % 2 == 1;
    const std::int64_t sealed = times.sealed[w].load();
    const std::int64_t localized = times.localized[w].load();
    const int count = times.localize_count[w].load();
    if (sealed == 0) {
      result.fail("window " + std::to_string(w) + " never sealed");
      continue;
    }
    if (failing != times.dispatched[w].load() || count != (failing ? 1 : 0)) {
      result.fail("window " + std::to_string(w) + ": " + std::to_string(count) +
                  " localizations, expected " + (failing ? "1" : "0"));
      continue;
    }
    const std::int64_t done = failing ? localized : sealed;
    last_done = std::max(last_done, done);
    const std::size_t sealer = w + kLatenessWindows + 1;
    (failing ? phase.miss_ms : phase.hit_ms).push_back(nsToMs(done - start_first[sealer]));
    phase.seal_ms.push_back(nsToMs(sealed - ingested_first[sealer]));
    if (failing) phase.localize_ms.push_back(nsToMs(localized - sealed));
    if (log != nullptr) {
      const auto op = static_cast<std::int64_t>(w);
      log->add("stream.seal", op, ingested_first[sealer], sealed);
      if (failing) log->add("stream.localize", op, sealed, localized);
    }
  }
  phase.windows = windows;
  phase.wall_s = nsToMs(last_done - t0) * 1e-3;
  phase.heap_peak = heap.segmentedPeak(t0, last_done) - heap_base;

  // Correctness gate: every localization equals the batch reference.
  for (const auto& loc : localizations) {
    const std::int64_t w = loc.epoch - kWarmupWindows;
    if (w < 0 || w >= static_cast<std::int64_t>(windows)) continue;
    const std::size_t c = (static_cast<std::size_t>(w) / 2) % inputs.failing.size();
    if (canonicalDoc(io::resultToJson(inputs.schema, loc.result)) !=
        inputs.reference[c]) {
      result.fail("window " + std::to_string(w) +
                  ": localization differs from batch RapMiner::localize");
    }
  }
  const auto& s = phase.stats;
  if (s.rejected + s.dropped_oldest + s.dropped_newest + s.late_dropped +
          s.windows_dropped + s.localize_failures > 0) {
    result.fail("engine lost events or windows (rejected/dropped/late/failed)");
  }
  const double p95 = quantile(phase.lateness_ms, 0.95);
  const double worst = quantile(phase.lateness_ms, 1.0);
  std::printf("producer lateness: p95 %.3f ms, max %.3f ms (bounds %.1f / %.1f); "
              "ingest call p95 %.3f ms, max %.3f ms\n",
              p95, worst, kLatenessP95BoundMs, kLatenessMaxBoundMs,
              quantile(phase.ingest_us, 0.95) * 1e-3, quantile(phase.ingest_us, 1.0) * 1e-3);
  if (p95 > kLatenessP95BoundMs || worst > kLatenessMaxBoundMs) {
    result.fail("invalid run: load generator lateness above its bound");
  }
  return phase;
}

/// Per-window replay (traced run): each window's work (detect, then
/// RapMiner::localize's stages on failing windows) twice, back to back on
/// one thread in alternating order: stage by stage under stream.staged,
/// and the same calls with no log, timed whole.  Returns the untraced
/// times of the failing windows.
std::vector<double> replayWindows(const Inputs& inputs, std::size_t windows,
                                  SpanLog& log,
                                  std::vector<core::SearchStats>& efforts) {
  const stream::StreamConfig config = engineConfig();
  const detect::RelativeDeviationDetector detector(config.detect_threshold);
  core::SearchWorkspace workspace;
  std::vector<double> untraced_ms;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto op = static_cast<std::int64_t>(w);
    const bool failing = w % 2 == 1;
    const dataset::LeafTable window = windowTable(inputs.schema, windowEvents(inputs, w));
    const auto run = [&](SpanLog* into) {
      dataset::LeafTable table = window;
      const std::int64_t start = nowNs();
      {
        ScopedSpan root(into, "stream.staged", op);
        {
          ScopedSpan span(into, "detect.run", op);
          detector.run(table);
        }
        if (failing) {
          core::SearchStats stats =
              stagedLocalize(table, config.miner, config.top_k, workspace, into, op).stats;
          if (into != nullptr) efforts.push_back(std::move(stats));
        }
      }
      if (into == nullptr && failing) untraced_ms.push_back(nsToMs(nowNs() - start));
    };
    if ((w / 2) % 2 == 0) {
      run(&log);
      run(nullptr);
    } else {
      run(nullptr);
      run(&log);
    }
  }
  return untraced_ms;
}

}  // namespace

RunResult runStreamWorkload(const Options& options) {
  RunResult result;
  constexpr std::size_t kProducers = 1;
  RAP_CHECK_MSG(kProducers <= loadThreadBudget(), "producer threads exceed nproc");
  const stream::StreamConfig config = engineConfig();
  const std::size_t min_samples = options.scale_down > 1 ? 8 : kMinTailSamples;
  const std::int32_t cases = std::max(2, kCases / options.scale_down);

  Inputs inputs;
  const auto tables = makeCaseTables(inputs.schema, options.seed, 0, cases, 0.0);
  for (const auto& table : tables) {
    std::vector<stream::StreamEvent> failing;
    std::vector<stream::StreamEvent> healthy;
    for (const auto& row : table.rows()) {
      failing.push_back({row.ac, 0, row.v, row.f});
      healthy.push_back({row.ac, 0, row.v, row.v});
    }
    inputs.reference.push_back(streamReferenceDoc(inputs.schema, failing,
                                                  config.miner, config.top_k,
                                                  config.detect_threshold));
    inputs.failing.push_back(std::move(failing));
    inputs.healthy.push_back(std::move(healthy));
  }
  if (options.corrupt_reference) inputs.reference[0][2] ^= 0x20;

  // Even, so failing and healthy windows are equally many.
  std::size_t windows = std::max<std::size_t>(
      2 * min_samples, static_cast<std::size_t>(options.seconds * kWindowRate));
  windows += windows % 2;
  const int setup_rounds = options.scale_down > 1 ? 2 : 9;

  SpanLog live(0);
  const Phase phase = runPhase(inputs, windows, setup_rounds,
                               options.trace ? &live : nullptr, result);
  std::printf("samples: %zu failing, %zu healthy windows at %.1f windows/s\n",
              phase.miss_ms.size(), phase.hit_ms.size(), kWindowRate);
  result.add("e2e.miss_p95_ms", segmentedP95(phase.miss_ms), "ms");
  result.add("e2e.hit_p95_ms", segmentedP95(phase.hit_ms), "ms");
  if (!options.trace) {
    const double n = static_cast<double>(phase.windows);
    result.add("setup_s", phase.setup_s, "s");
    result.add("throughput_ops", n / phase.wall_s, "1/s");
    result.add("miss_p50_ms", quantile(phase.miss_ms, 0.5), "ms");
    result.add("hit_p50_ms", quantile(phase.hit_ms, 0.5), "ms");
    result.add("cpu_ms_per_op", phase.cpu_s * 1e3 / n, "ms");
    result.add("heap_peak_mb", static_cast<double>(phase.heap_peak) / (1 << 20), "MiB");
    return result;
  }

  std::vector<core::SearchStats> efforts;
  SpanLog staged(1);
  const std::vector<double> untraced_ms =
      replayWindows(inputs, windows, staged, efforts);
  std::map<std::string, std::vector<double>> failing_ms;
  std::map<std::string, std::vector<double>> all_ms;
  for (const Span& span : staged.spans()) {
    const double ms = nsToMs(span.end_ns - span.start_ns);
    all_ms[span.name].push_back(ms);
    if (span.op % 2 == 1) failing_ms[span.name].push_back(ms);
  }
  const auto med = [&](const char* name) { return median(failing_ms[name]); };
  result.add("obs.tracing_overhead_ms",
             med("stream.staged") - median(untraced_ms), "ms");
  result.add("detect.run_ms", median(all_ms["detect.run"]), "ms");
  result.add("core.localize_ms", med("core.localize"), "ms");
  result.add("core.cp_ms", med("core.cp"), "ms");
  result.add("core.search_ms", med("core.search"), "ms");
  addSearchEffortMetrics(efforts, result);
  result.add("stream.ingest_call_us", median(phase.ingest_us), "us");
  result.add("stream.seal_ms", median(phase.seal_ms), "ms");
  result.add("stream.localize_ms", median(phase.localize_ms), "ms");
  result.add("stream.windows_sealed", static_cast<double>(phase.stats.windows_sealed), "count");
  result.add("stream.localizations", static_cast<double>(phase.stats.localizations), "count");
  result.add("stream.late_dropped", static_cast<double>(phase.stats.late_dropped), "count");
  result.add("stream.rejected", static_cast<double>(phase.stats.rejected), "count");
  result.add("stream.lateness_p95_ms", quantile(phase.lateness_ms, 0.95), "ms");
  result.add("stream.lateness_max_ms", quantile(phase.lateness_ms, 1.0), "ms");

  std::vector<bool> failing(windows);
  for (std::size_t w = 0; w < windows; ++w) failing[w] = w % 2 == 1;
  std::vector<SpanLog> logs;
  logs.push_back(live);
  logs.push_back(staged);
  printSelfSplit(logs, failing, quantile(phase.miss_ms, 0.5),
                 "failing-window latency p50");
  if (!options.trace_out.empty() &&
      !writeChromeTrace(options.trace_out, {&live, &staged})) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }
  return result;
}

}  // namespace perfbench
