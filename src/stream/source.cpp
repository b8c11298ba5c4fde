#include "stream/source.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/rng.h"
#include "util/status.h"

namespace rap::stream {

std::vector<StreamEvent> eventsFromCase(const gen::Case& c,
                                        const CaseEventsConfig& config) {
  RAP_CHECK(config.window_width > 0);
  util::Rng rng(config.shuffle_seed);
  const std::int64_t start = config.epoch * config.window_width;
  std::vector<StreamEvent> events;
  events.reserve(c.table.size());
  for (dataset::RowId id = 0; id < c.table.size(); ++id) {
    StreamEvent event;
    event.leaf = c.table.leaf(id);
    event.ts = start + rng.uniformInt(0, config.window_width - 1);
    event.v = c.table.v(id);
    event.f = c.table.f(id);
    events.push_back(std::move(event));
  }
  rng.shuffle(events);
  return events;
}

std::vector<StreamEvent> eventsFromTimeSeries(const gen::TimeSeriesCase& c,
                                              std::int64_t window_width,
                                              std::int32_t season_length,
                                              std::uint64_t shuffle_seed) {
  RAP_CHECK(window_width > 0);
  RAP_CHECK(season_length > 0);
  util::Rng rng(shuffle_seed);
  std::vector<StreamEvent> events;
  for (const auto& s : c.series) {
    const std::size_t minutes = s.history.size() + 1;  // + failure minute
    events.reserve(events.size() + minutes);
    double running_sum = 0.0;
    for (std::size_t t = 0; t < minutes; ++t) {
      const double v =
          (t < s.history.size()) ? s.history[t] : s.current;
      double f;
      if (t >= static_cast<std::size_t>(season_length)) {
        // Seasonal-naive: the value one season earlier.
        f = (t - season_length < s.history.size())
                ? s.history[t - season_length]
                : s.current;
      } else if (t > 0) {
        // First season: running mean of what we have seen so far.
        f = running_sum / static_cast<double>(t);
      } else {
        f = v;  // no history at all — forecast equals the observation
      }
      running_sum += v;
      StreamEvent event;
      event.leaf = s.leaf;
      event.ts = static_cast<std::int64_t>(t) * window_width +
                 rng.uniformInt(0, window_width - 1);
      event.v = v;
      event.f = f;
      events.push_back(std::move(event));
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.ts < b.ts;
                   });
  return events;
}

PushResult ReplaySource::run(StreamEngine& engine,
                             std::vector<StreamEvent> events) const {
  const std::size_t producers = std::max<std::size_t>(1, config_.producers);
  const std::size_t batch_size = std::max<std::size_t>(1, config_.batch_size);
  const double speedup = config_.speedup;
  const std::int64_t ts0 = events.empty() ? 0 : events.front().ts;

  std::vector<PushResult> results(producers);
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      const auto wall0 = std::chrono::steady_clock::now();
      PushResult local;
      std::vector<StreamEvent> batch;
      batch.reserve(batch_size);
      // Strided partition: producer p replays events p, p+N, p+2N, ...
      // Each slice stays ts-sorted, so pacing against the batch's first
      // timestamp keeps all producers roughly in event-time lockstep.
      for (std::size_t i = p; i < events.size(); i += producers) {
        if (batch.empty() && speedup > 0.0) {
          const double elapsed_event_time =
              static_cast<double>(events[i].ts - ts0);
          const auto due =
              wall0 + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(elapsed_event_time /
                                                        speedup));
          std::this_thread::sleep_until(due);
        }
        batch.push_back(events[i]);
        if (batch.size() >= batch_size) {
          local += engine.ingestBatch(std::move(batch));
          batch.clear();
          batch.reserve(batch_size);
        }
      }
      if (!batch.empty()) local += engine.ingestBatch(std::move(batch));
      results[p] = local;
    });
  }
  for (auto& t : threads) t.join();

  PushResult total;
  for (const auto& r : results) total += r;
  return total;
}

}  // namespace rap::stream
