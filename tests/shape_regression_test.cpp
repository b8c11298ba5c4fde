// Shape-regression suite: pins the qualitative results of the paper's
// evaluation (who wins, roughly by how much) on reduced workloads so a
// refactor that silently breaks an algorithm fails CI, not the bench
// review.  Thresholds are deliberately loose — they encode the paper's
// ordering claims, not exact numbers.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/rapminer.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "gen/rapmd.h"
#include "gen/squeeze_gen.h"

namespace rap {
namespace {

constexpr std::uint64_t kSeed = 20220627;

struct RapmdScores {
  double rapminer = 0.0;
  double adtributor = 0.0;
  double idice = 0.0;
  double fp_growth = 0.0;
  double squeeze = 0.0;
};

const RapmdScores& rapmdRc3() {
  static const RapmdScores kScores = [] {
    gen::RapmdConfig config;
    config.num_cases = 40;
    config.label_noise = 0.02;
    gen::RapmdGenerator generator(dataset::Schema::cdn(), config, kSeed);
    const auto cases = generator.generate();

    RapmdScores scores;
    for (const auto& localizer : eval::standardLocalizers()) {
      const auto runs = eval::runLocalizer(localizer, cases, {.k = 5});
      const double rc3 = eval::aggregateRecallAtK(runs, cases, 3);
      if (localizer.name == "RAPMiner") scores.rapminer = rc3;
      if (localizer.name == "Adtributor") scores.adtributor = rc3;
      if (localizer.name == "iDice") scores.idice = rc3;
      if (localizer.name == "FP-growth") scores.fp_growth = rc3;
      if (localizer.name == "Squeeze") scores.squeeze = rc3;
    }
    return scores;
  }();
  return kScores;
}

TEST(ShapeRapmd, RapMinerAboveEightyPercentIsh) {
  // Paper: "RAPMiner achieves the best performance (above 80%)".
  EXPECT_GT(rapmdRc3().rapminer, 0.72);
}

TEST(ShapeRapmd, RapMinerBeatsEveryBaseline) {
  const auto& s = rapmdRc3();
  EXPECT_GT(s.rapminer, s.adtributor);
  EXPECT_GT(s.rapminer, s.idice);
  EXPECT_GT(s.rapminer, s.fp_growth);
  EXPECT_GT(s.rapminer, s.squeeze);
}

TEST(ShapeRapmd, RapMinerClearlyAheadOfRuleMining) {
  // Paper: "at least 10% higher than the sub-optimal method".
  EXPECT_GT(rapmdRc3().rapminer - rapmdRc3().fp_growth, 0.05);
}

TEST(ShapeRapmd, AssumptionBoundMethodsDegrade) {
  // Squeeze and Adtributor break on RAPMD (assumption mismatch).
  EXPECT_LT(rapmdRc3().squeeze, 0.5);
  EXPECT_LT(rapmdRc3().adtributor, 0.5);
}

TEST(ShapeSqueezeDataset, TopTierNearPerfectOnGroup11) {
  gen::SqueezeGenConfig config;
  config.cases_per_group = 12;
  config.noise_sigma = gen::squeezeNoiseSigma(0);
  gen::SqueezeGenerator generator(config, kSeed);
  const auto group = generator.generateGroup(1, 1);
  for (const auto& localizer : eval::standardLocalizers()) {
    if (localizer.name == "iDice") continue;  // graded by dimension
    const auto runs =
        eval::runLocalizer(localizer, group.cases, {.k_equals_truth = true});
    const double f1 = eval::aggregateF1(runs, group.cases);
    if (localizer.name == "RAPMiner" || localizer.name == "Squeeze" ||
        localizer.name == "FP-growth" || localizer.name == "Adtributor") {
      EXPECT_GT(f1, 0.85) << localizer.name << " collapsed on (1,1)";
    }
  }
}

TEST(ShapeSqueezeDataset, AdtributorZeroBeyondOneDimension) {
  gen::SqueezeGenConfig config;
  config.cases_per_group = 8;
  gen::SqueezeGenerator generator(config, kSeed);
  const auto group = generator.generateGroup(2, 1);
  const auto localizers = eval::standardLocalizers();
  for (const auto& localizer : localizers) {
    if (localizer.name != "Adtributor") continue;
    const auto runs =
        eval::runLocalizer(localizer, group.cases, {.k_equals_truth = true});
    EXPECT_LT(eval::aggregateF1(runs, group.cases), 0.2)
        << "Adtributor can only express 1-dimensional causes";
  }
}

TEST(ShapeSqueezeDataset, RapMinerHandlesEveryDimension) {
  gen::SqueezeGenConfig config;
  config.cases_per_group = 8;
  config.noise_sigma = gen::squeezeNoiseSigma(0);
  gen::SqueezeGenerator generator(config, kSeed);
  for (std::int32_t dims = 1; dims <= 3; ++dims) {
    const auto group = generator.generateGroup(dims, 2);
    const auto localizer = eval::rapminerLocalizer({});
    const auto runs =
        eval::runLocalizer(localizer, group.cases, {.k_equals_truth = true});
    EXPECT_GT(eval::aggregateF1(runs, group.cases), 0.85)
        << "dims=" << dims;
  }
}

TEST(ShapeTable6, DeletionTradesRecallForTime) {
  gen::RapmdConfig config;
  config.num_cases = 30;
  config.label_noise = 0.02;
  gen::RapmdGenerator generator(dataset::Schema::cdn(), config, kSeed);
  const auto cases = generator.generate();

  core::RapMinerConfig with;
  core::RapMinerConfig without;
  without.cp.enable_attribute_deletion = false;
  const auto runs_with =
      eval::runLocalizer(eval::rapminerLocalizer(with), cases, {.k = 3});
  const auto runs_without =
      eval::runLocalizer(eval::rapminerLocalizer(without), cases, {.k = 3});
  const double rc_with = eval::aggregateRecallAtK(runs_with, cases, 3);
  const double rc_without = eval::aggregateRecallAtK(runs_without, cases, 3);

  // The time deletion buys, counted as search work rather than read off
  // a clock: the cuboids Algorithm 2 visits and the combinations it
  // evaluates, summed over the cases.
  const auto work = [&cases](const core::RapMinerConfig& config) {
    core::RapMiner miner(config);
    std::pair<std::uint64_t, std::uint64_t> sum{0, 0};
    for (const auto& c : cases) {
      const core::SearchStats stats = miner.localize(c.table, 3).stats;
      sum.first += stats.cuboids_visited;
      sum.second += stats.combinations_evaluated;
    }
    return sum;
  };
  const auto [cuboids_with, evaluated_with] = work(with);
  const auto [cuboids_without, evaluated_without] = work(without);

  EXPECT_LE(rc_with, rc_without + 1e-9);  // deletion never helps recall
  EXPECT_LT(cuboids_with, cuboids_without);  // but it buys time
  EXPECT_LT(evaluated_with, evaluated_without);
  EXPECT_GT(rc_with, rc_without - 0.2);  // and the cost is bounded
}

}  // namespace
}  // namespace rap
