// Algorithm 2 against its definition, and against pinned outputs.
//
// SearchOracle compares acGuidedSearch, serial and pooled, with a
// brute-force search written straight from the paper's definition
// (§IV-D): visit every combination of every cuboid in canonical order
// (layer, cuboid order, ascending key), count its support by a scan of
// the table, accept it when Confidence > t_conf and no accepted
// candidate is a proper ancestor, and stop once every anomalous leaf is
// covered.  Patterns, their order and every per-layer counter must be
// equal.
//
// SearchGolden pins patterns and per-layer counters of seeded RAPMD
// cases as digests recorded before the search was rewritten on keyed
// groups and row stamps, so any change to Algorithm 2's output shows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/rapminer.h"
#include "core/search.h"
#include "dataset/cuboid.h"
#include "gen/rapmd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rap {
namespace {

using core::LayerSearchStats;
using core::ScoredPattern;
using core::SearchConfig;
using dataset::AttrId;
using dataset::AttributeCombination;
using dataset::CuboidMask;
using dataset::LeafTable;
using dataset::Schema;

struct OracleResult {
  std::vector<ScoredPattern> patterns;
  std::vector<LayerSearchStats> layers;
  bool early_stopped = false;
};

/// The cuboids of `layer` over `kept` in visit order, from the order's
/// definition: descending Σ 2^(n - rank) over the member attributes
/// (rank = position in `kept`), ties by ascending mask; or plain
/// ascending masks.
std::vector<CuboidMask> visitOrder(const std::vector<AttrId>& kept,
                                   std::int32_t layer,
                                   core::CuboidOrder order) {
  const auto n = static_cast<std::int32_t>(kept.size());
  std::vector<CuboidMask> masks;
  for (std::uint32_t subset = 1; subset < (1u << n); ++subset) {
    if (std::popcount(subset) != layer) continue;
    CuboidMask mask = 0;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      if ((subset & (1u << rank)) != 0) {
        mask |= 1u << kept[static_cast<std::size_t>(rank)];
      }
    }
    masks.push_back(mask);
  }
  std::sort(masks.begin(), masks.end());
  if (order == core::CuboidOrder::kNumeric) return masks;
  const auto weight = [&](CuboidMask mask) {
    double w = 0.0;
    for (std::int32_t rank = 0; rank < n; ++rank) {
      if ((mask & (1u << kept[static_cast<std::size_t>(rank)])) != 0) {
        w += std::pow(2.0, n - rank);
      }
    }
    return w;
  };
  std::stable_sort(masks.begin(), masks.end(),
                   [&](CuboidMask a, CuboidMask b) {
                     return weight(a) > weight(b);
                   });
  return masks;
}

/// Every combination of cuboid `mask` in ascending key order (attribute
/// order, element id).  Small cuboids are enumerated cell by cell; for
/// large ones only the projections of the table's rows are listed, as
/// every other cell has no supporting leaf.
std::vector<AttributeCombination> combinationsOf(const LeafTable& table,
                                                 CuboidMask mask) {
  const Schema& schema = table.schema();
  if (dataset::cuboidSize(schema, mask) <= 4096) {
    std::vector<AttributeCombination> all;
    dataset::forEachInCuboid(schema, mask,
                             [&all](const AttributeCombination& ac) {
                               all.push_back(ac);
                             });
    return all;
  }
  std::set<AttributeCombination> projections;
  for (dataset::RowId r = 0; r < table.size(); ++r) {
    AttributeCombination ac(schema.attributeCount());
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      if ((mask & (1u << a)) != 0) ac.setSlot(a, table.elem(r, a));
    }
    projections.insert(ac);
  }
  return {projections.begin(), projections.end()};
}

OracleResult oracleSearch(const LeafTable& table,
                          const std::vector<AttrId>& kept,
                          const SearchConfig& config) {
  OracleResult result;
  std::vector<AttributeCombination> accepted;
  const auto n = static_cast<std::int32_t>(kept.size());
  for (std::int32_t layer = 1; layer <= n; ++layer) {
    LayerSearchStats stats;
    stats.layer = layer;
    for (const CuboidMask mask : visitOrder(kept, layer, config.order)) {
      stats.cuboids_visited += 1;
      for (const auto& ac : combinationsOf(table, mask)) {
        const auto support = table.aggregateFor(ac);
        if (support.total == 0) continue;  // not a group
        const bool has_accepted_ancestor =
            std::any_of(accepted.begin(), accepted.end(),
                        [&ac](const AttributeCombination& candidate) {
                          return candidate.isAncestorOf(ac);
                        });
        if (has_accepted_ancestor) {  // Criteria 3
          stats.combinations_pruned += 1;
          continue;
        }
        stats.combinations_evaluated += 1;
        const double confidence = support.confidence();
        if (!(confidence > config.t_conf)) continue;  // Criteria 2
        accepted.push_back(ac);
        ScoredPattern pattern;
        pattern.ac = ac;
        pattern.confidence = confidence;
        pattern.layer = layer;
        result.patterns.push_back(pattern);
        stats.candidates_found += 1;
        if (config.early_stop && table.coversAllAnomalies(accepted)) {
          result.early_stopped = true;
          result.layers.push_back(stats);
          return result;
        }
      }
    }
    result.layers.push_back(stats);
  }
  return result;
}

/// Equality with the oracle: patterns in order (confidence with ==) and
/// every per-layer counter.
void expectMatchesOracle(const OracleResult& oracle,
                         const std::vector<ScoredPattern>& patterns,
                         const core::SearchStats& stats,
                         const std::string& where) {
  ASSERT_EQ(oracle.patterns.size(), patterns.size()) << where;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_EQ(oracle.patterns[i].ac, patterns[i].ac) << where << " i=" << i;
    EXPECT_EQ(oracle.patterns[i].confidence, patterns[i].confidence)
        << where << " i=" << i;
    EXPECT_EQ(oracle.patterns[i].layer, patterns[i].layer)
        << where << " i=" << i;
  }
  EXPECT_EQ(oracle.early_stopped, stats.early_stopped) << where;
  ASSERT_EQ(oracle.layers.size(), stats.layers.size()) << where;
  std::uint64_t evaluated = 0;
  std::uint64_t pruned = 0;
  for (std::size_t i = 0; i < stats.layers.size(); ++i) {
    const auto& want = oracle.layers[i];
    const auto& got = stats.layers[i];
    EXPECT_EQ(want.layer, got.layer) << where;
    EXPECT_EQ(want.cuboids_visited, got.cuboids_visited)
        << where << " layer=" << want.layer;
    EXPECT_EQ(want.combinations_evaluated, got.combinations_evaluated)
        << where << " layer=" << want.layer;
    EXPECT_EQ(want.combinations_pruned, got.combinations_pruned)
        << where << " layer=" << want.layer;
    EXPECT_EQ(want.candidates_found, got.candidates_found)
        << where << " layer=" << want.layer;
    evaluated += want.combinations_evaluated;
    pruned += want.combinations_pruned;
  }
  EXPECT_EQ(evaluated, stats.combinations_evaluated) << where;
  EXPECT_EQ(pruned, stats.combinations_pruned) << where;
  EXPECT_EQ(oracle.patterns.size(), stats.candidates_found) << where;
}

/// A random small table: 1-5 attributes of 1-4 elements, leaves drawn
/// with replacement (so duplicate leaves occur, some with conflicting
/// verdicts), anomalous under one or two planted patterns and otherwise
/// with probability `noise`.
LeafTable randomTable(util::Rng& rng) {
  std::vector<std::int32_t> cards(
      static_cast<std::size_t>(rng.uniformInt(1, 5)));
  for (auto& card : cards) {
    card = static_cast<std::int32_t>(rng.uniformInt(1, 4));
  }
  const Schema schema = Schema::synthetic(cards);
  const auto leaves = static_cast<std::int64_t>(schema.leafCount());

  std::vector<AttributeCombination> planted;
  for (std::int64_t p = rng.uniformInt(1, 2); p > 0; --p) {
    AttributeCombination ac = dataset::leafFromIndex(
        schema, static_cast<std::uint64_t>(rng.uniformInt(0, leaves - 1)));
    for (AttrId a = 0; a < schema.attributeCount(); ++a) {
      if (rng.bernoulli(0.5)) ac.setSlot(a, dataset::kWildcard);
    }
    planted.push_back(ac);
  }
  const double noise = std::vector<double>{0.0, 0.05, 0.2}[static_cast<
      std::size_t>(rng.uniformInt(0, 2))];

  LeafTable table(schema);
  for (std::int64_t r = rng.uniformInt(1, 60); r > 0; --r) {
    const auto leaf = dataset::leafFromIndex(
        schema, static_cast<std::uint64_t>(rng.uniformInt(0, leaves - 1)));
    const bool in_pattern =
        std::any_of(planted.begin(), planted.end(),
                    [&leaf](const auto& p) { return p.covers(leaf); });
    const bool anomalous =
        in_pattern ? rng.bernoulli(0.9) : rng.bernoulli(noise);
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
    if (rng.bernoulli(0.15)) table.addRow(leaf, 100.0, 100.0, !anomalous);
  }
  return table;
}

/// A non-empty random subset of the attributes in random order: the
/// shape of Algorithm 1's output.
std::vector<AttrId> randomKept(util::Rng& rng, const Schema& schema) {
  std::vector<AttrId> kept;
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    if (rng.bernoulli(0.8)) kept.push_back(a);
  }
  if (kept.empty()) kept.push_back(0);
  for (std::size_t i = kept.size(); i > 1; --i) {
    std::swap(kept[i - 1], kept[static_cast<std::size_t>(
                               rng.uniformInt(0, static_cast<std::int64_t>(i) -
                                                     1))]);
  }
  return kept;
}

/// Runs the search serially and pooled (each on a workspace reused
/// across every call, so stale state between tables would show) and
/// compares both with the oracle.
class OracleHarness {
 public:
  void check(const LeafTable& table, const std::vector<AttrId>& kept,
             const SearchConfig& config, const std::string& where) {
    const OracleResult oracle = oracleSearch(table, kept, config);
    for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                   &pool_}) {
      core::SearchStats stats;
      const auto patterns = core::acGuidedSearch(
          table, kept, config, pool == nullptr ? serial_ws_ : pooled_ws_,
          stats, pool);
      expectMatchesOracle(oracle, patterns, stats,
                          where + (pool == nullptr ? " serial" : " pooled"));
    }
    accepted_ += oracle.patterns.size();
    early_stops_ += oracle.early_stopped ? 1 : 0;
  }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t earlyStops() const { return early_stops_; }

 private:
  util::ThreadPool pool_{3};
  core::SearchWorkspace serial_ws_;
  core::SearchWorkspace pooled_ws_;
  std::uint64_t accepted_ = 0;
  std::uint64_t early_stops_ = 0;
};

TEST(SearchOracle, MatchesAcGuidedSearchOnRandomTables) {
  OracleHarness harness;
  util::Rng rng(20220627);
  constexpr int kTables = 2000;
  for (int t = 0; t < kTables; ++t) {
    const LeafTable table = randomTable(rng);
    const auto kept = randomKept(rng, table.schema());
    SearchConfig config;
    config.t_conf = std::vector<double>{0.5, 0.8, 1.0}[static_cast<
        std::size_t>(t % 3)];
    config.early_stop = (t / 3) % 2 == 0;
    config.order = (t / 6) % 4 == 3 ? core::CuboidOrder::kNumeric
                                    : core::CuboidOrder::kCpWeighted;
    harness.check(table, kept, config,
                  "table=" + std::to_string(t) +
                      " t_conf=" + std::to_string(config.t_conf) +
                      " early_stop=" + std::to_string(config.early_stop));
    if (testing::Test::HasFailure()) return;  // one table's report is enough
  }
  // The workload must exercise acceptance, pruning and the early stop.
  EXPECT_GT(harness.accepted(), static_cast<std::uint64_t>(kTables));
  EXPECT_GT(harness.earlyStops(), static_cast<std::uint64_t>(kTables / 10));
}

TEST(SearchOracle, MatchesAboveTheDenseLimit) {
  // 64^4 cells: the full cuboid exceeds LeafTable::kDenseLimit, so the
  // last layer is aggregated by the sort path.
  const Schema schema = Schema::synthetic({64, 64, 64, 64});
  ASSERT_GT(dataset::cuboidSize(schema, dataset::allAttributesMask(schema)),
            LeafTable::kDenseLimit);
  OracleHarness harness;
  util::Rng rng(918273);
  for (int t = 0; t < 12; ++t) {
    LeafTable table(schema);
    // Few distinct values per attribute, so groups repeat across rows.
    const auto draw = [&rng] {
      return static_cast<dataset::ElemId>(rng.uniformInt(0, 5));
    };
    for (int r = 0; r < 150; ++r) {
      const AttributeCombination leaf({draw(), draw(), draw(), draw()});
      const bool anomalous = leaf.slot(0) == 1 || rng.bernoulli(0.1);
      table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
      if (rng.bernoulli(0.2)) table.addRow(leaf, 90.0, 100.0, !anomalous);
    }
    SearchConfig config;
    config.t_conf = std::vector<double>{0.5, 0.8, 1.0}[static_cast<
        std::size_t>(t % 3)];
    config.early_stop = t % 2 == 0;
    harness.check(table, {0, 1, 2, 3}, config,
                  "dense-limit table=" + std::to_string(t));
  }
  EXPECT_GT(harness.accepted(), 0u);
}

// ------------------------------------------------------------ golden

/// FNV-1a over the text rendering of every pattern (slots, %a
/// confidence, layer) and every per-layer counter of `cases` RAPMD cases
/// localized with deletion threshold `t_cp`.
std::uint64_t searchDigest(const Schema& schema, double t_cp,
                           std::int32_t cases) {
  gen::RapmdConfig gen_config;
  gen_config.num_cases = cases;
  gen_config.label_noise = 0.02;
  gen::RapmdGenerator generator(schema, gen_config, 20220627);
  core::RapMinerConfig config;
  config.cp.t_cp = t_cp;
  const core::RapMiner miner(config);

  std::string text;
  char buf[96];
  for (const auto& c : generator.generate()) {
    const auto result = miner.localize(c.table, 0);
    for (const auto& p : result.patterns) {
      for (const auto slot : p.ac.slots()) {
        text += std::to_string(slot) + ",";
      }
      std::snprintf(buf, sizeof buf, "|%a|%d\n", p.confidence, p.layer);
      text += buf;
    }
    for (const auto& l : result.stats.layers) {
      std::snprintf(buf, sizeof buf, "L%d:%llu/%llu/%llu/%llu\n", l.layer,
                    static_cast<unsigned long long>(l.cuboids_visited),
                    static_cast<unsigned long long>(l.combinations_evaluated),
                    static_cast<unsigned long long>(l.combinations_pruned),
                    static_cast<unsigned long long>(l.candidates_found));
      text += buf;
    }
    text += result.stats.early_stopped ? "stop\n" : "full\n";
  }
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char ch : text) {
    hash ^= ch;
    hash *= 1099511628211ull;
  }
  return hash;
}

TEST(SearchGolden, PatternsAndCountersArePinned) {
  const Schema deep = Schema::synthetic({5, 4, 4, 3, 3, 3, 2, 2});
  EXPECT_EQ(searchDigest(Schema::cdn(), 0.0, 4), 17511204356592010744ull);
  EXPECT_EQ(searchDigest(Schema::cdn(), 0.0005, 4), 6488683372777399151ull);
  EXPECT_EQ(searchDigest(deep, 0.0, 4), 14136179877777417816ull);
  EXPECT_EQ(searchDigest(deep, 0.0005, 4), 10196118722750429304ull);
}

}  // namespace
}  // namespace rap
