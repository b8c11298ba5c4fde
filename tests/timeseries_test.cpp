#include <gtest/gtest.h>

#include <algorithm>

#include "core/rapminer.h"
#include "core/report.h"
#include "forecast/forecaster.h"
#include "forecast/pipeline.h"
#include "gen/timeseries.h"

namespace rap::gen {
namespace {

using dataset::Schema;

TimeSeriesConfig smallConfig() {
  TimeSeriesConfig config;
  config.history_days = 3;
  config.background.minutes_per_day = 96;  // compressed day for speed
  config.background.sparsity = 0.1;
  return config;
}

TEST(TimeSeries, SeriesHaveFullHistoryAndCurrent) {
  TimeSeriesGenerator generator(Schema::synthetic({6, 4, 4}), smallConfig(),
                                11);
  const auto c = generator.generateCase(0);
  ASSERT_FALSE(c.series.empty());
  for (const auto& s : c.series) {
    EXPECT_EQ(s.history.size(), 3u * 96u);
    EXPECT_GE(s.current, 0.0);
  }
  EXPECT_GE(c.failure_minute, 3 * 96);
}

TEST(TimeSeries, DeterministicPerIndex) {
  TimeSeriesGenerator a(Schema::synthetic({6, 4, 4}), smallConfig(), 42);
  TimeSeriesGenerator b(Schema::synthetic({6, 4, 4}), smallConfig(), 42);
  const auto ca = a.generateCase(3);
  const auto cb = b.generateCase(3);
  EXPECT_EQ(ca.truth, cb.truth);
  EXPECT_EQ(ca.failure_minute, cb.failure_minute);
  ASSERT_EQ(ca.series.size(), cb.series.size());
  for (std::size_t i = 0; i < ca.series.size(); ++i) {
    EXPECT_EQ(ca.series[i].history, cb.series[i].history);
    EXPECT_DOUBLE_EQ(ca.series[i].current, cb.series[i].current);
  }
}

TEST(TimeSeries, InjectedLeavesDropBelowHistoryLevel) {
  TimeSeriesGenerator generator(Schema::synthetic({6, 4, 4}), smallConfig(),
                                7);
  const auto c = generator.generateCase(1);
  for (const auto& s : c.series) {
    const bool hit = std::any_of(
        c.truth.begin(), c.truth.end(),
        [&s](const auto& rap) { return rap.matchesLeaf(s.leaf); });
    if (!hit) continue;
    // The drop is 30-90% against the same-phase expectation; compare to
    // the same minute of the previous day.
    const double yesterday =
        s.history[s.history.size() - 96];  // one compressed day back
    EXPECT_LT(s.current, yesterday)
        << s.leaf.toString(generator.schema()) << " should have dropped";
  }
}

TEST(TimeSeries, EndToEndForecastDetectLocalize) {
  // The headline path: raw history in, RAPs out.
  auto config = smallConfig();
  config.min_raps = 1;
  config.max_raps = 1;
  config.min_rap_dim = 1;
  config.max_rap_dim = 2;
  config.drop_lo = 0.5;
  config.drop_hi = 0.9;
  TimeSeriesGenerator generator(Schema::synthetic({6, 4, 4}), config, 99);

  int hits = 0;
  const int cases = 5;
  for (int i = 0; i < cases; ++i) {
    const auto c = generator.generateCase(i);
    forecast::PipelineConfig pipeline;
    pipeline.detect_threshold = 0.3;
    const auto table = forecast::buildDetectedTable(
        generator.schema(), c.series,
        forecast::HoltWintersForecaster(96), pipeline);
    const auto result = core::RapMiner().localize(table, 3);
    const auto acs = [&result] {
      std::vector<dataset::AttributeCombination> out;
      for (const auto& p : result.patterns) out.push_back(p.ac);
      return out;
    }();
    if (std::find(acs.begin(), acs.end(), c.truth[0]) != acs.end()) ++hits;
  }
  EXPECT_GE(hits, 4) << "forecast+localize pipeline missed too many cases";
}

TEST(Report, RendersSectionsAndPatterns) {
  TimeSeriesGenerator generator(Schema::synthetic({6, 4, 4}), smallConfig(),
                                5);
  const auto c = generator.generateCase(0);
  forecast::PipelineConfig pipeline;
  pipeline.detect_threshold = 0.2;
  const auto table = forecast::buildDetectedTable(
      generator.schema(), c.series, forecast::HoltWintersForecaster(96),
      pipeline);
  const auto result = core::RapMiner().localize(table, 3);

  const std::string report = core::renderReport(generator.schema(), result);
  EXPECT_NE(report.find("Root anomaly patterns"), std::string::npos);
  EXPECT_NE(report.find("Classification power"), std::string::npos);
  EXPECT_NE(report.find("Search effort"), std::string::npos);

  core::ReportOptions bare;
  bare.include_stats = false;
  bare.include_powers = false;
  const std::string minimal =
      core::renderReport(generator.schema(), result, bare);
  EXPECT_EQ(minimal.find("Search effort"), std::string::npos);
  EXPECT_EQ(minimal.find("Classification power"), std::string::npos);
}

TEST(Report, EmptyResultSaysNoneFound) {
  const Schema schema = Schema::tiny();
  const core::LocalizationResult empty;
  const std::string report = core::renderReport(schema, empty);
  EXPECT_NE(report.find("none found"), std::string::npos);
}

}  // namespace
}  // namespace rap::gen
