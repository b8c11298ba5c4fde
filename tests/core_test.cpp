#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/classification_power.h"
#include "core/rapminer.h"
#include "core/search.h"
#include "dataset/cuboid.h"
#include "util/thread_pool.h"

namespace rap::core {
namespace {

using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

/// Dense table over Schema::tiny() with everything under `broken`
/// (textual patterns) anomalous.
LeafTable makeTable(const std::vector<std::string>& broken_patterns) {
  const Schema schema = Schema::tiny();
  std::vector<AttributeCombination> broken;
  for (const auto& text : broken_patterns) {
    broken.push_back(AttributeCombination::parse(schema, text).value());
  }
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const bool anomalous =
        std::any_of(broken.begin(), broken.end(),
                    [&leaf](const AttributeCombination& ac) {
                      return ac.matchesLeaf(leaf);
                    });
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }
  return table;
}

// ------------------------------------------------- Classification power

TEST(ClassificationPower, RapAttributeDominates) {
  // The paper's Fig. 6: (a1, *, *, *) broken -> attribute A classifies
  // the dataset; B, C, D do not.
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  const auto powers = classificationPowers(table);
  ASSERT_EQ(powers.size(), 4u);
  EXPECT_DOUBLE_EQ(powers[0], 1.0);  // perfect split
  EXPECT_NEAR(powers[1], 0.0, 1e-9);
  EXPECT_NEAR(powers[2], 0.0, 1e-9);
  EXPECT_NEAR(powers[3], 0.0, 1e-9);
}

TEST(ClassificationPower, TwoAttributeRap) {
  const LeafTable table = makeTable({"(a1, *, *, d1)"});
  const auto powers = classificationPowers(table);
  EXPECT_GT(powers[0], 0.05);
  EXPECT_GT(powers[3], 0.05);
  EXPECT_NEAR(powers[1], 0.0, 1e-9);
  EXPECT_NEAR(powers[2], 0.0, 1e-9);
}

TEST(ClassificationPower, ZeroWhenNoAnomalies) {
  const LeafTable table = makeTable({});
  for (const double power : classificationPowers(table)) {
    EXPECT_DOUBLE_EQ(power, 0.0);
  }
}

TEST(ClassificationPower, ZeroWhenAllAnomalous) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  // Re-label everything anomalous: no label uncertainty left.
  LeafTable all(table.schema());
  for (const auto& row : table.rows()) {
    all.addRow(row.ac, row.v, row.f, true);
  }
  for (const double power : classificationPowers(all)) {
    EXPECT_DOUBLE_EQ(power, 0.0);
  }
}

TEST(DeleteRedundantAttributes, Algorithm1KeepsAndSorts) {
  const LeafTable table = makeTable({"(a1, *, *, d1)"});
  std::vector<double> powers;
  const auto kept = deleteRedundantAttributes(table, 0.01, &powers);
  // A (3 elements) isolates anomalies better than D (2 elements), so the
  // CP-descending order is {A, D}.
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_GT(powers[static_cast<std::size_t>(kept[0])],
            powers[static_cast<std::size_t>(kept[1])]);
  EXPECT_TRUE((kept[0] == 0 && kept[1] == 3) ||
              (kept[0] == 3 && kept[1] == 0));
}

TEST(DeleteRedundantAttributes, ThresholdIsExclusive) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  // CP of A is exactly 1.0; with t_cp = 1.0 even A is deleted
  // (Criteria 1 requires CP strictly greater than t_CP).
  EXPECT_TRUE(deleteRedundantAttributes(table, 1.0).empty());
  EXPECT_EQ(deleteRedundantAttributes(table, 0.99).size(), 1u);
}

TEST(DecreaseRatio, MatchesTableIV) {
  // Table IV lists the lower bound (2^k - 1) / 2^k; the exact ratio for
  // finite n must exceed it.
  const double bounds[] = {0.5, 0.75, 0.875, 0.9375, 0.96875};
  for (std::int32_t k = 1; k <= 5; ++k) {
    const double exact = decreaseRatio(8, k);
    EXPECT_GT(exact, bounds[k - 1]) << "k=" << k;
    EXPECT_LT(exact, 1.0);
  }
  EXPECT_DOUBLE_EQ(decreaseRatio(4, 4), 1.0);
  EXPECT_DOUBLE_EQ(decreaseRatio(4, 0), 0.0);
}

TEST(DecreaseRatio, MatchesLatticeCounts) {
  for (std::int32_t n = 2; n <= 8; ++n) {
    for (std::int32_t k = 1; k < n; ++k) {
      const double total = std::pow(2.0, n) - 1.0;
      const double remaining = std::pow(2.0, n - k) - 1.0;
      EXPECT_NEAR(decreaseRatio(n, k), (total - remaining) / total, 1e-12);
    }
  }
}

// ------------------------------------------------------------- AC search

/// Algorithm 2's serial schedule on a fresh workspace.
std::vector<ScoredPattern> serialSearch(
    const LeafTable& table, const std::vector<dataset::AttrId>& kept,
    const SearchConfig& config, SearchStats& stats) {
  SearchWorkspace workspace;
  return acGuidedSearch(table, kept, config, workspace, stats);
}

TEST(AcSearch, FindsSingleLayer1Rap) {
  const LeafTable table = makeTable({"(a2, *, *, *)"});
  SearchStats stats;
  const auto patterns = serialSearch(table, {0, 1, 2, 3}, {}, stats);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_EQ(patterns[0].ac.toString(table.schema()), "(a2, *, *, *)");
  EXPECT_DOUBLE_EQ(patterns[0].confidence, 1.0);
  EXPECT_EQ(patterns[0].layer, 1);
  EXPECT_TRUE(stats.early_stopped);
}

TEST(AcSearch, PrunesDescendantsOfAcceptedRap) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  SearchStats stats;
  const auto patterns = serialSearch(table, {0, 1, 2, 3}, {}, stats);
  // Only the root pattern — none of its (fully anomalous) descendants.
  ASSERT_EQ(patterns.size(), 1u);
  for (const auto& p : patterns) {
    EXPECT_EQ(p.ac.toString(table.schema()), "(a1, *, *, *)");
  }
}

TEST(AcSearch, FindsRapsInDifferentCuboids) {
  const LeafTable table = makeTable({"(a1, *, *, *)", "(*, b2, c1, *)"});
  SearchStats stats;
  SearchConfig config;
  config.early_stop = false;  // exhaustive, to check the full candidate set
  const auto patterns = serialSearch(table, {0, 1, 2, 3}, config, stats);
  std::vector<std::string> found;
  for (const auto& p : patterns) found.push_back(p.ac.toString(table.schema()));
  EXPECT_NE(std::find(found.begin(), found.end(), "(a1, *, *, *)"),
            found.end());
  EXPECT_NE(std::find(found.begin(), found.end(), "(*, b2, c1, *)"),
            found.end());
}

TEST(AcSearch, CandidatesPairwiseNonAncestral) {
  const LeafTable table = makeTable({"(a1, *, *, *)", "(*, b2, c1, *)"});
  SearchStats stats;
  const auto patterns = serialSearch(table, {0, 1, 2, 3}, {}, stats);
  for (const auto& a : patterns) {
    for (const auto& b : patterns) {
      if (a.ac == b.ac) continue;
      EXPECT_FALSE(a.ac.isAncestorOf(b.ac));
    }
  }
}

TEST(AcSearch, ConfidenceThresholdIsStrict) {
  // Craft a table where (a1,*,*,*) has confidence exactly 0.5.
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  const auto a1 = AttributeCombination::parse(schema, "(a1, *, *, *)").value();
  int toggle = 0;
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = dataset::leafFromIndex(schema, i);
    const bool anomalous = a1.matchesLeaf(leaf) && (toggle++ % 2 == 0);
    table.addRow(leaf, anomalous ? 0.0 : 100.0, 100.0, anomalous);
  }
  SearchStats stats;
  SearchConfig config;
  config.t_conf = 0.5;
  const auto patterns = serialSearch(table, {0, 1, 2, 3}, config, stats);
  for (const auto& p : patterns) {
    EXPECT_GT(p.confidence, 0.5);
    EXPECT_FALSE(p.ac == a1);  // 0.5 is not > 0.5
  }
}

TEST(AcSearch, RestrictedAttributesNeverAppear) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  SearchStats stats;
  // Attribute 0 deleted: the true RAP is unreachable; whatever is found
  // must not constrain attribute 0, and nothing of confidence 1 at layer
  // 1 exists among {1, 2, 3}.
  const auto patterns = serialSearch(table, {1, 2, 3}, {}, stats);
  for (const auto& p : patterns) {
    EXPECT_TRUE(p.ac.isWildcard(0));
  }
}

TEST(AcSearch, EmptyKeptAttributesFindsNothing) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  SearchStats stats;
  EXPECT_TRUE(serialSearch(table, {}, {}, stats).empty());
  EXPECT_EQ(stats.cuboids_visited, 0u);
}

TEST(AcSearch, EarlyStopSkipsRemainingWork) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  SearchStats eager_stats;
  SearchConfig eager;
  eager.early_stop = true;
  serialSearch(table, {0, 1, 2, 3}, eager, eager_stats);

  SearchStats full_stats;
  SearchConfig full;
  full.early_stop = false;
  serialSearch(table, {0, 1, 2, 3}, full, full_stats);

  EXPECT_TRUE(eager_stats.early_stopped);
  EXPECT_FALSE(full_stats.early_stopped);
  EXPECT_LT(eager_stats.combinations_evaluated,
            full_stats.combinations_evaluated);
}

// -------------------------------------------------------------- RapMiner

TEST(RapScore, Equation3) {
  EXPECT_DOUBLE_EQ(rapScore(1.0, 1), 1.0);
  EXPECT_NEAR(rapScore(1.0, 2), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(rapScore(0.9, 4), 0.45, 1e-12);
  EXPECT_DOUBLE_EQ(rapScore(1.0, 0), 0.0);
}

TEST(RapMiner, EndToEndSingleRap) {
  const LeafTable table = makeTable({"(a1, b2, *, *)"});
  const auto result = RapMiner().localize(table, 3);
  ASSERT_FALSE(result.patterns.empty());
  EXPECT_EQ(result.patterns[0].ac.toString(table.schema()), "(a1, b2, *, *)");
  EXPECT_EQ(result.patterns[0].layer, 2);
  // C and D carry no signal and must be deleted by Algorithm 1.
  EXPECT_EQ(result.stats.attributes_deleted, 2);
}

TEST(RapMiner, RanksCoarserPatternsFirst) {
  // Two true RAPs at different layers with equal confidence: Eq. 3
  // prefers the lower layer.
  const LeafTable table = makeTable({"(a1, *, *, *)", "(*, b2, c1, *)"});
  RapMinerConfig config;
  config.search.early_stop = false;
  const auto result = RapMiner(config).localize(table, 5);
  ASSERT_GE(result.patterns.size(), 2u);
  EXPECT_EQ(result.patterns[0].ac.toString(table.schema()), "(a1, *, *, *)");
  EXPECT_GT(result.patterns[0].score, result.patterns[1].score);
}

TEST(RapMiner, TopKTruncates) {
  const LeafTable table = makeTable({"(a1, *, *, *)", "(*, b2, c1, *)"});
  RapMinerConfig config;
  config.search.early_stop = false;
  EXPECT_EQ(RapMiner(config).localize(table, 1).patterns.size(), 1u);
  // k <= 0 returns every candidate.
  EXPECT_GE(RapMiner(config).localize(table, 0).patterns.size(), 2u);
}

TEST(RapMiner, NoAnomaliesNoPatterns) {
  const LeafTable table = makeTable({});
  const auto result = RapMiner().localize(table, 5);
  EXPECT_TRUE(result.patterns.empty());
}

TEST(RapMiner, AblationFlagSearchesFullLattice) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  RapMinerConfig no_delete;
  no_delete.cp.enable_attribute_deletion = false;
  const auto result = RapMiner(no_delete).localize(table, 5);
  EXPECT_EQ(result.stats.attributes_deleted, 0);
  EXPECT_EQ(result.stats.kept_attributes.size(), 4u);
  ASSERT_FALSE(result.patterns.empty());
  EXPECT_EQ(result.patterns[0].ac.toString(table.schema()), "(a1, *, *, *)");
}

TEST(RapMiner, DeletionShrinksVisitedCuboids) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  RapMinerConfig with;
  with.search.early_stop = false;
  RapMinerConfig without = with;
  without.cp.enable_attribute_deletion = false;
  const auto r_with = RapMiner(with).localize(table, 5);
  const auto r_without = RapMiner(without).localize(table, 5);
  EXPECT_LT(r_with.stats.cuboids_visited, r_without.stats.cuboids_visited);
}

TEST(RapMiner, StatsExposeClassificationPowers) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  const auto result = RapMiner().localize(table, 5);
  ASSERT_EQ(result.stats.classification_power.size(), 4u);
  EXPECT_DOUBLE_EQ(result.stats.classification_power[0], 1.0);
}

TEST(AcSearch, NumericOrderFindsTheSameCandidates) {
  // Visit order changes efficiency, never the exhaustive candidate set.
  const LeafTable table = makeTable({"(a1, *, *, *)", "(*, b2, c1, *)"});
  SearchConfig cp_order;
  cp_order.early_stop = false;
  SearchConfig numeric = cp_order;
  numeric.order = CuboidOrder::kNumeric;

  SearchStats s1;
  SearchStats s2;
  auto a = serialSearch(table, {0, 1, 2, 3}, cp_order, s1);
  auto b = serialSearch(table, {0, 1, 2, 3}, numeric, s2);
  auto key = [](const ScoredPattern& p) { return p.ac; };
  std::vector<AttributeCombination> acs_a;
  std::vector<AttributeCombination> acs_b;
  for (const auto& p : a) acs_a.push_back(key(p));
  for (const auto& p : b) acs_b.push_back(key(p));
  std::sort(acs_a.begin(), acs_a.end());
  std::sort(acs_b.begin(), acs_b.end());
  EXPECT_EQ(acs_a, acs_b);
  EXPECT_EQ(s1.combinations_evaluated, s2.combinations_evaluated);
}

TEST(RapMiner, CuboidOrderConfigPlumbsThrough) {
  const LeafTable table = makeTable({"(a1, *, *, *)"});
  RapMinerConfig config;
  config.search.order = CuboidOrder::kNumeric;
  const auto result = RapMiner(config).localize(table, 3);
  ASSERT_FALSE(result.patterns.empty());
  EXPECT_EQ(result.patterns[0].ac.toString(table.schema()), "(a1, *, *, *)");
}

TEST(RapMinerConfig, RejectsInvalidThresholds) {
  RapMinerConfig bad;
  bad.search.t_conf = 1.5;
  EXPECT_DEATH({ RapMiner miner(bad); (void)miner; }, "t_conf");
  RapMinerConfig bad2;
  bad2.cp.t_cp = -0.5;
  EXPECT_DEATH({ RapMiner miner(bad2); (void)miner; }, "t_cp");
}

TEST(RapMinerBuilder, ValidateRejectsOutOfRangeKnobs) {
  // Builder::build() turns the constructor's RAP_CHECK aborts into a
  // recoverable Status for user-supplied thresholds.
  EXPECT_EQ(RapMiner::Builder().tCp(-0.5).validate().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(RapMiner::Builder().tCp(1.0).validate().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(RapMiner::Builder().tConf(0.0).validate().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(RapMiner::Builder().tConf(1.5).validate().code(),
            util::StatusCode::kInvalidArgument);

  const auto bad = RapMiner::Builder().tConf(2.0).build();
  ASSERT_FALSE(bad.isOk());
  EXPECT_EQ(bad.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RapMinerBuilder, ValidateRejectsNonFiniteThresholds) {
  // Regression: NaN / Inf must produce a dedicated "finite number"
  // diagnostic instead of sneaking past (or confusing) range checks.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    const auto t_cp = RapMiner::Builder().tCp(bad).validate();
    EXPECT_EQ(t_cp.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(t_cp.message().find("finite"), std::string::npos)
        << t_cp.message();
    const auto t_conf = RapMiner::Builder().tConf(bad).validate();
    EXPECT_EQ(t_conf.code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(t_conf.message().find("finite"), std::string::npos)
        << t_conf.message();
    EXPECT_FALSE(RapMiner::Builder().deadlineSeconds(bad).validate().isOk());
  }
  EXPECT_FALSE(RapMiner::Builder().deadlineSeconds(-1.0).validate().isOk());
  EXPECT_FALSE(RapMiner::Builder().maxLayers(-1).validate().isOk());
  EXPECT_TRUE(RapMiner::Builder().deadlineSeconds(0.5).maxLayers(2).validate()
                  .isOk());
}

TEST(RapMinerBuilder, BuildsWorkingMinerOnBoundaryValues) {
  // t_conf = 1.0 and t_cp = 0.0 sit on the closed ends of their ranges.
  const auto miner = RapMiner::Builder()
                         .tCp(0.0)
                         .tConf(1.0)
                         .attributeDeletion(false)
                         .earlyStop(false)
                         .cuboidOrder(CuboidOrder::kNumeric)
                         .build();
  ASSERT_TRUE(miner.isOk());
  util::ThreadPool pool(1);  // one worker + the caller
  const auto result = miner->localize(makeTable({"(a1, *, *, *)"}), 0, &pool);
  // Confidence can never exceed 1.0, so t_conf = 1.0 accepts nothing.
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.search_threads, 2);
}

}  // namespace
}  // namespace rap::core
