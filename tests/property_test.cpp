// Property-based suites: invariants checked over randomized workloads
// via parameterized gtest sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <set>

#include "core/rapminer.h"
#include "dataset/cuboid.h"
#include "eval/metrics.h"
#include "eval/runner.h"
#include "gen/rapmd.h"
#include "gen/squeeze_gen.h"
#include "io/csv.h"
#include "stream/event.h"
#include "util/rng.h"

namespace rap {
namespace {

using dataset::AttributeCombination;
using dataset::LeafTable;
using dataset::Schema;

/// Random sparse labeled table over a random small schema.
LeafTable randomTable(util::Rng& rng) {
  std::vector<std::int32_t> cards;
  const auto n_attrs = static_cast<std::int32_t>(rng.uniformInt(2, 4));
  for (std::int32_t i = 0; i < n_attrs; ++i) {
    cards.push_back(static_cast<std::int32_t>(rng.uniformInt(2, 5)));
  }
  const Schema schema = Schema::synthetic(cards);
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    if (rng.bernoulli(0.2)) continue;  // sparsity
    const double f = rng.uniform(1.0, 100.0);
    const bool anomalous = rng.bernoulli(0.25);
    const double v = anomalous ? f * rng.uniform(0.0, 0.5) : f;
    table.addRow(dataset::leafFromIndex(schema, i), v, f, anomalous);
  }
  return table;
}

class RandomTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTableProperty, GroupByPartitionsEveryCuboid) {
  util::Rng rng(GetParam());
  const LeafTable table = randomTable(rng);
  for (const auto mask :
       dataset::allCuboidsByLayer(dataset::allAttributesMask(table.schema()))) {
    std::uint64_t total = 0;
    std::uint64_t anomalous = 0;
    for (const auto& g : table.groupBy(mask)) {
      EXPECT_LE(g.anomalous, g.total);
      EXPECT_EQ(g.ac.cuboidMask(), mask);
      // KPI sums accumulate in row order, like the scan: bit for bit.
      const auto expected = table.aggregateFor(g.ac);
      EXPECT_EQ(g.v_sum, expected.v_sum);
      EXPECT_EQ(g.f_sum, expected.f_sum);
      total += g.total;
      anomalous += g.anomalous;
    }
    EXPECT_EQ(total, table.size());
    EXPECT_EQ(anomalous, table.anomalousCount());
  }
}

TEST_P(RandomTableProperty, PackedCodecAgreesWithGroupByKeys) {
  // The one packed codec: in every cuboid, the combinations in
  // lexicographic order project (packed with zeros in the wildcard
  // fields) to strictly ascending values below cells() and unpack back
  // from their key, and every key groupByInto's sweep produces is the
  // projection of the group's first row, whose cuboid combination is
  // the decoded group's.
  util::Rng rng(GetParam());
  const LeafTable table = randomTable(rng);
  const Schema& schema = table.schema();
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> out;
  for (const auto mask :
       dataset::allCuboidsByLayer(dataset::allAttributesMask(schema))) {
    const dataset::KeyProjection projection(schema, mask);
    std::uint64_t position = 0;
    std::uint64_t previous = 0;
    dataset::forEachInCuboid(
        schema, mask, [&](const AttributeCombination& ac) {
          std::vector<dataset::ElemId> slots = ac.slots();
          for (auto& slot : slots) slot = std::max(slot, 0);
          const std::uint64_t key = schema.pack(slots);
          EXPECT_EQ(dataset::combinationOfLeaf(schema, key, mask), ac);
          const std::uint64_t projected = projection(key);
          EXPECT_LT(projected, projection.cells()) << "mask=" << mask;
          if (position > 0) {
            EXPECT_LT(previous, projected) << "mask=" << mask;
          }
          previous = projected;
          ++position;
        });
    EXPECT_EQ(position, dataset::cuboidSize(schema, mask));

    const std::size_t count = table.groupByInto(mask, scratch, out);
    const auto decoded = table.groupBy(mask);
    ASSERT_EQ(decoded.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(table.combination(out[i].first_row, mask), decoded[i].ac);
      EXPECT_EQ(projection(table.key(out[i].first_row)), out[i].key)
          << "mask=" << mask << " i=" << i;
    }
  }
}

TEST_P(RandomTableProperty, WorkspaceGroupByBitIdenticalUnderReuse) {
  // The allocation-free path's contract under REUSE: one scratch and one
  // grow-only output vector driven across two random tables x every
  // cuboid x repeated passes must yield, for every group, exactly the
  // support counts of the definition-level scan LeafTable::aggregateFor
  // and the group's lowest row, in ascending key order, with group
  // totals covering every row.  The failure mode this hunts is stale state leaking between
  // calls: a cell not reset to zero, or a first row left over from a
  // previous cuboid.
  util::Rng rng(GetParam() ^ 0x5EED);
  const LeafTable table_a = randomTable(rng);
  const LeafTable table_b = randomTable(rng);
  dataset::GroupByScratch scratch;
  std::vector<dataset::KeyedGroup> out;
  for (int pass = 0; pass < 3; ++pass) {
    for (const LeafTable* table : {&table_a, &table_b}) {
      for (const auto mask : dataset::allCuboidsByLayer(
               dataset::allAttributesMask(table->schema()))) {
        const std::size_t count = table->groupByInto(mask, scratch, out);
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < count; ++i) {
          const auto ac = table->combination(out[i].first_row, mask);
          const auto expected = table->aggregateFor(ac);
          EXPECT_EQ(ac.cuboidMask(), mask)
              << "pass=" << pass << " mask=" << mask << " i=" << i;
          EXPECT_EQ(expected.total, out[i].total);
          EXPECT_EQ(expected.anomalous, out[i].anomalous);
          // first_row is the group's lowest member row.
          EXPECT_EQ(dataset::KeyProjection(table->schema(), mask)(
                        table->key(out[i].first_row)),
                    out[i].key);
          for (dataset::RowId r = 0; r < out[i].first_row; ++r) {
            EXPECT_FALSE(table->rowMatches(r, ac));
          }
          if (i > 0) {
            EXPECT_LT(out[i - 1].key, out[i].key);
            EXPECT_LT(table->combination(out[i - 1].first_row, mask), ac);
          }
          total += out[i].total;
        }
        EXPECT_EQ(total, table->size()) << "pass=" << pass << " mask=" << mask;
      }
    }
  }
}

TEST_P(RandomTableProperty, RapMinerInvariants) {
  util::Rng rng(GetParam());
  const LeafTable table = randomTable(rng);
  core::RapMinerConfig config;
  config.search.t_conf = rng.uniform(0.55, 0.95);
  const auto result = core::RapMiner(config).localize(table, 0);

  for (const auto& p : result.patterns) {
    // Criteria 2: every reported pattern clears the confidence bar.
    EXPECT_GT(p.confidence, config.search.t_conf);
    EXPECT_DOUBLE_EQ(table.aggregateFor(p.ac).confidence(), p.confidence);
    // Layer bookkeeping is consistent.
    EXPECT_EQ(p.layer, p.ac.dim());
    EXPECT_NEAR(p.score, core::rapScore(p.confidence, p.layer), 1e-12);
    // Deleted attributes never appear in results.
    for (dataset::AttrId a = 0; a < table.schema().attributeCount(); ++a) {
      const auto& kept = result.stats.kept_attributes;
      if (std::find(kept.begin(), kept.end(), a) == kept.end()) {
        EXPECT_TRUE(p.ac.isWildcard(a));
      }
    }
  }
  // Criteria 3 / Definition 1: results are pairwise non-ancestral.
  for (const auto& a : result.patterns) {
    for (const auto& b : result.patterns) {
      if (a.ac == b.ac) continue;
      EXPECT_FALSE(a.ac.isAncestorOf(b.ac));
    }
  }
  // Ranking is by score, non-increasing.
  for (std::size_t i = 1; i < result.patterns.size(); ++i) {
    EXPECT_GE(result.patterns[i - 1].score, result.patterns[i].score);
  }
}

TEST_P(RandomTableProperty, EarlyStopImpliesCoverage) {
  util::Rng rng(GetParam() ^ 0xABCDEF);
  const LeafTable table = randomTable(rng);
  const auto result = core::RapMiner().localize(table, 0);
  if (result.stats.early_stopped) {
    EXPECT_TRUE(table.coversAllAnomalies(eval::patternsToAcs(result.patterns)));
  }
}

TEST_P(RandomTableProperty, DeletionNeverExpandsSearch) {
  util::Rng rng(GetParam() ^ 0x123456);
  const LeafTable table = randomTable(rng);
  core::RapMinerConfig with;
  with.search.early_stop = false;
  core::RapMinerConfig without = with;
  without.cp.enable_attribute_deletion = false;
  const auto r_with = core::RapMiner(with).localize(table, 0);
  const auto r_without = core::RapMiner(without).localize(table, 0);
  EXPECT_LE(r_with.stats.cuboids_visited, r_without.stats.cuboids_visited);
  EXPECT_LE(r_with.stats.combinations_evaluated,
            r_without.stats.combinations_evaluated);
}

TEST_P(RandomTableProperty, TopKIsPrefixOfFullRanking) {
  util::Rng rng(GetParam() ^ 0x777);
  const LeafTable table = randomTable(rng);
  const core::RapMiner miner;
  const auto full = miner.localize(table, 0);
  const auto top2 = miner.localize(table, 2);
  ASSERT_LE(top2.patterns.size(), 2u);
  for (std::size_t i = 0; i < top2.patterns.size(); ++i) {
    EXPECT_EQ(top2.patterns[i].ac, full.patterns[i].ac);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTableProperty,
                         ::testing::Range<std::uint64_t>(1, 21));

// ------------------------------------------------------ generator sweeps

class RapmdProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RapmdProperty, InjectionInvariants) {
  gen::RapmdConfig config;
  config.num_cases = 2;
  gen::RapmdGenerator generator(Schema::cdn(), config, GetParam());
  for (const auto& c : generator.generate()) {
    // Verdicts equal descendant-of-truth membership (no label noise).
    for (const auto& row : c.table.rows()) {
      const bool injected =
          std::any_of(c.truth.begin(), c.truth.end(),
                      [&row](const AttributeCombination& rap) {
                        return rap.matchesLeaf(row.ac);
                      });
      EXPECT_EQ(row.anomalous, injected);
      EXPECT_GT(row.f, 0.0);
      EXPECT_GE(row.v, 0.0);
    }
    // Ground truth count within Randomness 1 bounds.
    EXPECT_GE(c.truth.size(), 1u);
    EXPECT_LE(c.truth.size(), 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RapmdProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// Robustness sweep: every localizer must return a bounded, rank-ordered
// result (and not crash) on arbitrary sparse labeled tables.
class LocalizerRobustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalizerRobustness, AllLocalizersSurviveRandomTables) {
  util::Rng rng(GetParam() ^ 0xFEED);
  const LeafTable table = randomTable(rng);
  for (const auto& localizer :
       eval::standardLocalizers({}, /*include_hotspot=*/true)) {
    const auto patterns = localizer.fn(table, 4);
    EXPECT_LE(patterns.size(), 4u) << localizer.name;
    for (std::size_t i = 1; i < patterns.size(); ++i) {
      EXPECT_LE(patterns[i].score, patterns[i - 1].score + 1e-9)
          << localizer.name;
    }
    for (const auto& p : patterns) {
      EXPECT_GT(p.ac.dim(), 0) << localizer.name
                               << " returned the lattice root";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalizerRobustness,
                         ::testing::Range<std::uint64_t>(1, 11));

// ---------------------------------------------------------- io fuzzing

class CsvRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsvRoundTripProperty, RandomDocumentsRoundTrip) {
  util::Rng rng(GetParam());
  // Random field content drawn from a hostile alphabet.
  const std::string alphabet = "ab,\"\n\r\t x";
  std::vector<io::CsvRow> rows;
  const auto n_rows = static_cast<std::size_t>(rng.uniformInt(1, 8));
  const auto n_cols = static_cast<std::size_t>(rng.uniformInt(1, 5));
  for (std::size_t r = 0; r < n_rows; ++r) {
    io::CsvRow row;
    for (std::size_t c = 0; c < n_cols; ++c) {
      std::string field;
      const auto len = static_cast<std::size_t>(rng.uniformInt(0, 10));
      for (std::size_t i = 0; i < len; ++i) {
        field += alphabet[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
      }
      // A lone '\r' round-trips as a line break artifact only when
      // unquoted; the writer quotes it, so any content is fair game —
      // except a field that is entirely empty rows-wise, handled below.
      row.push_back(std::move(field));
    }
    rows.push_back(std::move(row));
  }
  // An all-empty single-field final row is indistinguishable from a
  // trailing newline; skip that degenerate shape.
  if (rows.back().size() == 1 && rows.back()[0].empty()) {
    rows.back()[0] = "x";
  }
  const auto parsed = io::parseCsv(io::writeCsv(rows));
  ASSERT_TRUE(parsed.isOk()) << "seed=" << GetParam();
  EXPECT_EQ(parsed.value(), rows) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

class AcTextRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AcTextRoundTrip, ToStringParsesBack) {
  util::Rng rng(GetParam());
  const Schema schema = Schema::cdn();
  for (int i = 0; i < 50; ++i) {
    AttributeCombination ac(schema.attributeCount());
    for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
      if (rng.bernoulli(0.5)) {
        ac.setSlot(a, static_cast<dataset::ElemId>(
                          rng.uniformInt(0, schema.cardinality(a) - 1)));
      }
    }
    const auto parsed =
        AttributeCombination::parse(schema, ac.toString(schema));
    ASSERT_TRUE(parsed.isOk());
    EXPECT_EQ(parsed.value(), ac);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AcTextRoundTrip,
                         ::testing::Values(3, 5, 7, 9));

class LatticeProperty : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(LatticeProperty, CuboidCountsMatchBinomials) {
  const std::int32_t n = GetParam();
  const dataset::CuboidMask allowed = (1u << n) - 1;
  std::uint64_t total = 0;
  for (std::int32_t layer = 1; layer <= n; ++layer) {
    const auto at_layer = dataset::cuboidsAtLayer(allowed, layer);
    // C(n, layer) cuboids per layer.
    std::uint64_t binom = 1;
    for (std::int32_t i = 0; i < layer; ++i) {
      binom = binom * static_cast<std::uint64_t>(n - i) /
              static_cast<std::uint64_t>(i + 1);
    }
    EXPECT_EQ(at_layer.size(), binom) << "n=" << n << " layer=" << layer;
    total += at_layer.size();
  }
  EXPECT_EQ(total, (std::uint64_t{1} << n) - 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, LatticeProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10));

// ---------------------------------------------------------------------------
// Packed-key order: sorting stream rows by (packed leaf key, v, f) is the
// lexicographic slot order the windows were once sorted in.

/// The comparator sealed windows were sorted with before rows carried
/// their leaf key.
bool rowLess(const dataset::LeafRow& a, const dataset::LeafRow& b) {
  if (a.ac.slots() != b.ac.slots()) return a.ac.slots() < b.ac.slots();
  if (a.v != b.v) return a.v < b.v;
  return a.f < b.f;
}

/// A schema whose packed key fills all 64 bits — 8 x 255 elements, a
/// leaf space just below 2^64 — which fromSpec accepts.
Schema fullPackedWidth() {
  std::vector<dataset::AttributeSpec> spec;
  for (int i = 0; i < 8; ++i) {
    const int card = 255;
    dataset::AttributeSpec attr{"A" + std::to_string(i), {}};
    for (int e = 0; e < card; ++e) {
      attr.elements.push_back("e" + std::to_string(e));
    }
    spec.push_back(std::move(attr));
  }
  auto schema = Schema::fromSpec(std::move(spec));
  RAP_CHECK(schema.isOk());
  return schema.value();
}

class LeafOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeafOrderProperty, PackedKeyOrderEqualsSlotOrder) {
  util::Rng rng(GetParam());
  std::vector<Schema> schemas{Schema::cdn(), fullPackedWidth()};
  EXPECT_EQ(schemas.back().fieldMask(0), std::uint64_t{0xFF} << 56);
  for (int i = 0; i < 3; ++i) schemas.push_back(randomTable(rng).schema());
  for (const Schema& schema : schemas) {
    // Random leaves, many repeated with a different v or f only, and
    // some repeated exactly.
    std::vector<dataset::LeafRow> rows;
    for (int r = 0; r < 400; ++r) {
      std::vector<dataset::ElemId> slots;
      for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
        // Favour the extreme digits, where a wrong radix would show.
        const auto card = schema.cardinality(a);
        const double pick = rng.uniform(0.0, 1.0);
        slots.push_back(pick < 0.2   ? 0
                        : pick < 0.4 ? card - 1
                                     : static_cast<dataset::ElemId>(
                                           rng.uniformInt(0, card - 1)));
      }
      const double v = static_cast<double>(rng.uniformInt(0, 3));
      const double f = static_cast<double>(rng.uniformInt(0, 3));
      const AttributeCombination leaf(std::move(slots));
      rows.push_back({leaf, v, f, false});
      if (rng.bernoulli(0.3)) rows.push_back({leaf, v + 1.0, f, false});
      if (rng.bernoulli(0.3)) rows.push_back({leaf, v, f - 1.0, false});
      if (rng.bernoulli(0.1)) rows.push_back(rows.back());
    }
    std::vector<stream::LeafEvent> events;
    for (const auto& row : rows) {
      events.push_back({schema.pack(row.ac.slots()), 0, row.v, row.f});
    }
    std::sort(rows.begin(), rows.end(), rowLess);
    std::sort(events.begin(), events.end(), stream::canonicalLess);
    ASSERT_EQ(rows.size(), events.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(dataset::combinationOfLeaf(schema, events[i].leaf,
                                           dataset::allAttributesMask(schema)),
                rows[i].ac)
          << "row " << i;
      EXPECT_EQ(events[i].v, rows[i].v);
      EXPECT_EQ(events[i].f, rows[i].f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeafOrderProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// The packed codec over random schemas: cardinality 1 (empty fields),
// powers of two (full fields), 2^k + 1 (one value past a full field)
// and others, and on odd seeds field widths that sum to exactly 64.

/// Random cardinalities whose packed key fits 64 bits; `full` makes the
/// widths sum to exactly 64, with a leaf space still below 2^64.
std::vector<std::int32_t> randomCardinalities(util::Rng& rng, bool full) {
  std::vector<std::int32_t> widths(
      static_cast<std::size_t>(rng.uniformInt(full ? 6 : 1, 32)), 0);
  if (full) {
    // 64 bits dealt round-robin (at most 11 per field), then shuffled.
    for (int bit = 0; bit < 64; ++bit) widths[bit % widths.size()] += 1;
    rng.shuffle(widths);
  } else {
    std::int32_t total = 0;
    for (auto& w : widths) {
      w = static_cast<std::int32_t>(rng.uniformInt(0, 12));
      if (total + w > 64) w = 0;
      total += w;
    }
  }
  std::vector<std::int32_t> cards;
  std::int32_t total = 0;
  bool below_power = false;
  for (const std::int32_t w : widths) {
    total += w;
    std::int32_t card = 1;
    if (w > 0) {
      const std::int32_t low = (1 << (w - 1)) + 1;  // 2^k + 1
      const std::int32_t high = 1 << w;             // 2^(k+1)
      const auto pick = rng.uniformInt(0, 2);
      card = w == 1 ? 2
             : pick == 0 ? low
             : pick == 1 ? high
                         : static_cast<std::int32_t>(rng.uniformInt(low, high));
    }
    below_power |= (card & (card - 1)) != 0;
    cards.push_back(card);
  }
  // Widths summing to 64 with every field full would be 2^64 leaves.
  if (total == 64 && !below_power) {
    for (auto& card : cards) {
      if (card > 2) {
        card = card / 2 + 1;
        break;
      }
    }
  }
  return cards;
}

/// A random leaf, favouring each field's extreme values.
std::vector<dataset::ElemId> randomSlots(util::Rng& rng, const Schema& schema) {
  std::vector<dataset::ElemId> slots;
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    const auto card = schema.cardinality(a);
    const double pick = rng.uniform(0.0, 1.0);
    slots.push_back(pick < 0.25   ? 0
                    : pick < 0.5  ? card - 1
                                  : static_cast<dataset::ElemId>(
                                        rng.uniformInt(0, card - 1)));
  }
  return slots;
}

/// -1, 0 or 1 as `a` orders before, with or after `b`.
template <typename T>
int order(const T& a, const T& b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

class PackedCodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedCodecProperty, RoundTripsAndOrdersLikeSlots) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    const bool full = (GetParam() + static_cast<std::uint64_t>(round)) % 2 == 1;
    const Schema schema = Schema::synthetic(randomCardinalities(rng, full));
    const auto n = static_cast<std::size_t>(schema.attributeCount());
    // The fields tile the low `width` bits, disjoint and in order.
    std::int32_t width = 0;
    std::uint64_t covered = 0;
    for (dataset::AttrId a = schema.attributeCount(); a-- > 0;) {
      const std::uint64_t mask = schema.fieldMask(a);
      if (mask != 0) {
        ASSERT_EQ(std::countr_zero(mask), width);
        ASSERT_EQ(schema.fieldShift(a), width);
      }
      ASSERT_EQ(covered & mask, 0u);
      covered |= mask;
      width += std::popcount(mask);
    }
    if (full) {
      ASSERT_EQ(width, 64);
    }

    // Pack / field / unpack round trip, and leaf-key validity.
    std::vector<std::vector<dataset::ElemId>> leaves;
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 64; ++i) {
      leaves.push_back(randomSlots(rng, schema));
      keys.push_back(schema.pack(leaves.back()));
      const std::uint64_t key = keys.back();
      ASSERT_TRUE(schema.isLeafKey(key));
      if (width < 64) {
        EXPECT_EQ(key >> width, 0u);
      }
      for (std::size_t a = 0; a < n; ++a) {
        EXPECT_EQ(schema.field(key, static_cast<dataset::AttrId>(a)),
                  leaves.back()[a]);
      }
      EXPECT_EQ(dataset::combinationOfLeaf(schema, key,
                                           dataset::allAttributesMask(schema))
                    .slots(),
                leaves.back());
    }

    // isLeafKey against its definition on arbitrary words.
    for (int i = 0; i < 256; ++i) {
      std::uint64_t word = rng.next();
      if (i % 2 == 0 && width < 64) word &= (std::uint64_t{1} << width) - 1;
      bool leaf = width == 64 || (word >> width) == 0;
      for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
        leaf = leaf && schema.field(word, a) < schema.cardinality(a);
      }
      EXPECT_EQ(schema.isLeafKey(word), leaf) << std::hex << word;
    }

    // Key order is lexicographic slot order, and on every cuboid (a
    // sample of them above 10 attributes) projections order like the
    // member slots.
    std::vector<dataset::CuboidMask> masks;
    const dataset::CuboidMask all = dataset::allAttributesMask(schema);
    if (n <= 10) {
      masks = dataset::allCuboidsByLayer(all);
    } else {
      for (int i = 0; i < 64; ++i) {
        masks.push_back(static_cast<dataset::CuboidMask>(rng.next()) & all);
      }
      masks.push_back(all);
    }
    for (std::size_t i = 0; i + 1 < leaves.size(); ++i) {
      EXPECT_EQ(order(keys[i], keys[i + 1]), order(leaves[i], leaves[i + 1]));
    }
    for (const dataset::CuboidMask mask : masks) {
      const dataset::KeyProjection projection(schema, mask);
      std::int32_t member_bits = 0;
      for (const auto a : dataset::cuboidAttributes(mask)) {
        member_bits += std::popcount(schema.fieldMask(a));
      }
      EXPECT_EQ(projection.cells(), projection(schema.lastLeafKey()) + 1);
      const auto members = [&](std::size_t i) {
        std::vector<dataset::ElemId> out;
        for (const auto a : dataset::cuboidAttributes(mask)) {
          out.push_back(leaves[i][static_cast<std::size_t>(a)]);
        }
        return out;
      };
      std::vector<std::uint64_t> projected(keys.size());
      projection.project(keys, projected.data());
      for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(projected[i], projection(keys[i]));
        EXPECT_LT(projected[i], projection.cells());
        if (member_bits < 64) {
          EXPECT_EQ(projected[i] >> member_bits, 0u);
        }
        const std::size_t j = (i + 1) % keys.size();
        EXPECT_EQ(order(projection(keys[i]), projection(keys[j])),
                  order(members(i), members(j)))
            << "mask=" << mask;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedCodecProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace rap
