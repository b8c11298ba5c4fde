#include <gtest/gtest.h>

#include <cmath>

#include "dataset/cuboid.h"
#include "detect/detector.h"

namespace rap::detect {
namespace {

using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

LeafTable tableWithDeviations(const std::vector<std::pair<double, double>>& vf) {
  const Schema schema = Schema::synthetic(
      {static_cast<std::int32_t>(vf.size()), 1});
  LeafTable table(schema);
  for (std::size_t i = 0; i < vf.size(); ++i) {
    AttributeCombination leaf(2);
    leaf.setSlot(0, static_cast<dataset::ElemId>(i));
    leaf.setSlot(1, 0);
    table.addRow(std::move(leaf), vf[i].first, vf[i].second,
                 /*anomalous=*/false);
  }
  return table;
}

TEST(RelativeDeviation, ComputesForecastMinusActualShare) {
  EXPECT_DOUBLE_EQ(relativeDeviation(60.0, 100.0), 0.4);
  EXPECT_DOUBLE_EQ(relativeDeviation(120.0, 100.0), -0.2);
}

TEST(RelativeDeviation, ZeroForecastGuarded) {
  EXPECT_TRUE(std::isfinite(relativeDeviation(5.0, 0.0)));
}

TEST(RelativeDeviationDetector, OneSidedFlagsOnlyDrops) {
  // v/f pairs: strong drop, mild drop, spike, nominal.
  auto table = tableWithDeviations({{20, 100}, {95, 100}, {150, 100}, {100, 100}});
  const RelativeDeviationDetector detector(0.1);
  EXPECT_EQ(detector.run(table), 1u);
  EXPECT_TRUE(table.row(0).anomalous);
  EXPECT_FALSE(table.row(1).anomalous);
  EXPECT_FALSE(table.row(2).anomalous);  // spike ignored one-sided
  EXPECT_FALSE(table.row(3).anomalous);
}

TEST(RelativeDeviationDetector, TwoSidedFlagsSpikesToo) {
  auto table = tableWithDeviations({{20, 100}, {150, 100}, {100, 100}});
  const RelativeDeviationDetector detector(0.1, /*two_sided=*/true);
  EXPECT_EQ(detector.run(table), 2u);
  EXPECT_TRUE(table.row(0).anomalous);
  EXPECT_TRUE(table.row(1).anomalous);
  EXPECT_FALSE(table.row(2).anomalous);
}

TEST(RelativeDeviationDetector, ThresholdIsExclusive) {
  auto table = tableWithDeviations({{90, 100}});  // dev exactly 0.1
  const RelativeDeviationDetector detector(0.1);
  EXPECT_EQ(detector.run(table), 0u);
}

TEST(RelativeDeviationDetector, RerunOverwritesPriorVerdicts) {
  auto table = tableWithDeviations({{20, 100}, {100, 100}});
  table.setAnomalous(1, true);  // stale verdict
  const RelativeDeviationDetector detector(0.5);
  EXPECT_EQ(detector.run(table), 1u);
  EXPECT_TRUE(table.row(0).anomalous);
  EXPECT_FALSE(table.row(1).anomalous);
}

TEST(NSigmaDetector, FlagsOutlierResiduals) {
  // 19 nominal rows, one with a huge residual.
  std::vector<std::pair<double, double>> vf(19, {100.0, 100.0});
  vf.push_back({0.0, 100.0});
  auto table = tableWithDeviations(vf);
  const NSigmaDetector detector(3.0);
  EXPECT_EQ(detector.run(table), 1u);
  EXPECT_TRUE(table.row(19).anomalous);
}

TEST(NSigmaDetector, AllEqualResidualsNothingFlagged) {
  auto table = tableWithDeviations({{90, 100}, {90, 100}, {90, 100}});
  const NSigmaDetector detector(2.0);
  EXPECT_EQ(detector.run(table), 0u);  // zero variance -> no outliers
}

TEST(Detectors, NamesAreStable) {
  EXPECT_EQ(RelativeDeviationDetector(0.1).name(), "relative-deviation");
  EXPECT_EQ(NSigmaDetector(3.0).name(), "n-sigma");
}

}  // namespace
}  // namespace rap::detect
