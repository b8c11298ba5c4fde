#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "dataset/attribute_combination.h"
#include "dataset/cuboid.h"
#include "dataset/leaf_table.h"
#include "dataset/schema.h"
#include "util/rng.h"

namespace rap::dataset {
namespace {

// ---------------------------------------------------------------- Schema

TEST(Schema, CdnMatchesTableI) {
  const Schema schema = Schema::cdn();
  ASSERT_EQ(schema.attributeCount(), 4);
  EXPECT_EQ(schema.attribute(0).name(), "Location");
  EXPECT_EQ(schema.cardinality(0), 33);
  EXPECT_EQ(schema.cardinality(1), 4);
  EXPECT_EQ(schema.cardinality(2), 4);
  EXPECT_EQ(schema.cardinality(3), 20);
  EXPECT_EQ(schema.leafCount(), 10560u);  // paper §II-B worst case
  EXPECT_EQ(schema.cuboidCount(), 15u);   // paper Fig. 2
}

TEST(Schema, ElementLookupRoundTrip) {
  const Schema schema = Schema::cdn();
  const auto& attr = schema.attribute(3);
  for (ElemId e = 0; e < attr.cardinality(); ++e) {
    EXPECT_EQ(attr.elementId(attr.elementName(e)).value(), e);
  }
}

TEST(Schema, UnknownNamesAreErrors) {
  const Schema schema = Schema::tiny();
  EXPECT_FALSE(schema.attributeId("Nope").isOk());
  EXPECT_FALSE(schema.attribute(0).elementId("nope").isOk());
}

TEST(Schema, AttributeIdLookup) {
  const Schema schema = Schema::cdn();
  EXPECT_EQ(schema.attributeId("Website").value(), 3);
  EXPECT_EQ(schema.attributeId("Location").value(), 0);
}

TEST(Schema, SyntheticCardinalities) {
  const Schema schema = Schema::synthetic({5, 7});
  ASSERT_EQ(schema.attributeCount(), 2);
  EXPECT_EQ(schema.cardinality(0), 5);
  EXPECT_EQ(schema.cardinality(1), 7);
  EXPECT_EQ(schema.leafCount(), 35u);
}

// ---------------------------------------------- AttributeCombination

TEST(AttributeCombination, DefaultAllWildcard) {
  const AttributeCombination ac(4);
  EXPECT_EQ(ac.dim(), 0);
  EXPECT_FALSE(ac.isLeaf());
  EXPECT_EQ(ac.cuboidMask(), 0u);
}

TEST(AttributeCombination, DimCountsConcreteSlots) {
  AttributeCombination ac(4);
  ac.setSlot(0, 1);
  ac.setSlot(3, 2);
  EXPECT_EQ(ac.dim(), 2);
  EXPECT_EQ(ac.cuboidMask(), 0b1001u);
  EXPECT_FALSE(ac.isLeaf());
}

TEST(AttributeCombination, ParseAgainstSchema) {
  const Schema schema = Schema::cdn();
  const auto ac =
      AttributeCombination::parse(schema, "(L1, *, *, Site1)").value();
  EXPECT_EQ(ac.dim(), 2);
  EXPECT_EQ(ac.slot(0), 0);
  EXPECT_TRUE(ac.isWildcard(1));
  EXPECT_TRUE(ac.isWildcard(2));
  EXPECT_EQ(ac.slot(3), 0);
  EXPECT_EQ(ac.toString(schema), "(L1, *, *, Site1)");
}

TEST(AttributeCombination, ParseWithoutParens) {
  const Schema schema = Schema::tiny();
  const auto ac = AttributeCombination::parse(schema, "a2,*,c1,*").value();
  EXPECT_EQ(ac.slot(0), 1);
  EXPECT_EQ(ac.slot(2), 0);
}

TEST(AttributeCombination, ParseErrors) {
  const Schema schema = Schema::tiny();
  EXPECT_FALSE(AttributeCombination::parse(schema, "(a1, *)").isOk());
  EXPECT_FALSE(AttributeCombination::parse(schema, "(zz, *, *, *)").isOk());
}

TEST(AttributeCombination, MatchesLeaf) {
  const Schema schema = Schema::tiny();
  const auto pattern =
      AttributeCombination::parse(schema, "(a1, *, *, d1)").value();
  const auto hit =
      AttributeCombination::parse(schema, "(a1, b2, c1, d1)").value();
  const auto miss =
      AttributeCombination::parse(schema, "(a2, b2, c1, d1)").value();
  EXPECT_TRUE(pattern.matchesLeaf(hit));
  EXPECT_FALSE(pattern.matchesLeaf(miss));
  EXPECT_TRUE(hit.matchesLeaf(hit));  // a leaf matches itself
}

TEST(AttributeCombination, AncestorAndCovers) {
  const Schema schema = Schema::tiny();
  const auto coarse =
      AttributeCombination::parse(schema, "(a1, *, *, *)").value();
  const auto mid = AttributeCombination::parse(schema, "(a1, b1, *, *)").value();
  const auto other =
      AttributeCombination::parse(schema, "(a2, b1, *, *)").value();

  EXPECT_TRUE(coarse.isAncestorOf(mid));
  EXPECT_FALSE(mid.isAncestorOf(coarse));
  EXPECT_FALSE(coarse.isAncestorOf(coarse));  // proper ancestry
  EXPECT_TRUE(coarse.covers(coarse));
  EXPECT_TRUE(coarse.covers(mid));
  EXPECT_FALSE(coarse.covers(other));
  EXPECT_FALSE(coarse.isAncestorOf(other));
}

TEST(AttributeCombination, HashConsistentWithEquality) {
  const Schema schema = Schema::tiny();
  const auto a = AttributeCombination::parse(schema, "(a1, *, c1, *)").value();
  const auto b = AttributeCombination::parse(schema, "(a1, *, c1, *)").value();
  const auto c = AttributeCombination::parse(schema, "(a1, *, c2, *)").value();
  const AcHash hash;
  EXPECT_EQ(a, b);
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_FALSE(a == c);

  std::unordered_set<AttributeCombination, AcHash> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(AttributeCombination, WildcardVsElementZeroDistinct) {
  // Regression guard: '*' (id -1) must not hash/compare equal to element 0.
  AttributeCombination wild(2);
  AttributeCombination zero(2);
  zero.setSlot(0, 0);
  EXPECT_FALSE(wild == zero);
}

// ---------------------------------------------------------------- Cuboid

TEST(Cuboid, LatticeHas2ToNMinus1Cuboids) {
  const Schema schema = Schema::cdn();
  const auto all = allCuboidsByLayer(allAttributesMask(schema));
  EXPECT_EQ(all.size(), 15u);
  // Layer sizes 4,6,4,1 as in Fig. 2.
  EXPECT_EQ(cuboidsAtLayer(allAttributesMask(schema), 1).size(), 4u);
  EXPECT_EQ(cuboidsAtLayer(allAttributesMask(schema), 2).size(), 6u);
  EXPECT_EQ(cuboidsAtLayer(allAttributesMask(schema), 3).size(), 4u);
  EXPECT_EQ(cuboidsAtLayer(allAttributesMask(schema), 4).size(), 1u);
}

TEST(Cuboid, OrderedByLayer) {
  const auto all = allCuboidsByLayer(0b1111);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(cuboidLayer(all[i - 1]), cuboidLayer(all[i]));
  }
}

TEST(Cuboid, RestrictedLattice) {
  // Only attributes 0 and 2 allowed -> 3 cuboids.
  const auto all = allCuboidsByLayer(0b0101);
  EXPECT_EQ(all.size(), 3u);
  for (const auto mask : all) {
    EXPECT_EQ(mask & ~0b0101u, 0u);
  }
}

TEST(Cuboid, SizeIsCardinalityProduct) {
  const Schema schema = Schema::cdn();
  EXPECT_EQ(cuboidSize(schema, 0b0001), 33u);
  EXPECT_EQ(cuboidSize(schema, 0b1001), 660u);    // Location x Website
  EXPECT_EQ(cuboidSize(schema, 0b1111), 10560u);  // paper §II-B
}

TEST(Cuboid, ForEachVisitsAll) {
  const Schema schema = Schema::tiny();
  std::size_t count = 0;
  forEachInCuboid(schema, 0b1111,
                  [&count](const AttributeCombination&) { ++count; });
  EXPECT_EQ(count, schema.leafCount());
}

// ------------------------------------------------------------- LeafTable

LeafTable tinyTable() {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  // Mark everything under (a1, *, *, *) anomalous.
  const auto broken =
      AttributeCombination::parse(schema, "(a1, *, *, *)").value();
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const auto leaf = leafFromIndex(schema, i);
    const bool anomalous = broken.matchesLeaf(leaf);
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
  }
  return table;
}

TEST(LeafTable, CountsAndTotals) {
  const LeafTable table = tinyTable();
  EXPECT_EQ(table.size(), 24u);
  EXPECT_EQ(table.anomalousCount(), 8u);  // 1/3 of A's elements
  EXPECT_DOUBLE_EQ(table.totalF(), 2400.0);
  EXPECT_DOUBLE_EQ(table.totalV(), 8 * 10.0 + 16 * 100.0);
}

TEST(LeafTable, GroupByLayer1MatchesAggregateFor) {
  const LeafTable table = tinyTable();
  const auto groups = table.groupBy(0b0001);
  ASSERT_EQ(groups.size(), 3u);
  for (const auto& g : groups) {
    const auto direct = table.aggregateFor(g.ac);
    EXPECT_EQ(g.total, direct.total);
    EXPECT_EQ(g.anomalous, direct.anomalous);
    EXPECT_DOUBLE_EQ(g.v_sum, direct.v_sum);
    EXPECT_DOUBLE_EQ(g.f_sum, direct.f_sum);
  }
}

TEST(LeafTable, GroupByTotalsSumToTableSize) {
  const LeafTable table = tinyTable();
  for (const auto mask : allCuboidsByLayer(0b1111)) {
    std::uint64_t total = 0;
    for (const auto& g : table.groupBy(mask)) total += g.total;
    EXPECT_EQ(total, table.size()) << "mask=" << mask;
  }
}

TEST(LeafTable, ConfidenceIsAnomalousShare) {
  const LeafTable table = tinyTable();
  for (const auto& g : table.groupBy(0b0001)) {
    const Schema& schema = table.schema();
    if (g.ac.toString(schema) == "(a1, *, *, *)") {
      EXPECT_DOUBLE_EQ(g.confidence(), 1.0);
    } else {
      EXPECT_DOUBLE_EQ(g.confidence(), 0.0);
    }
  }
}

TEST(LeafTable, GroupByWithRowsSubset) {
  const LeafTable table = tinyTable();
  const auto anomalous = table.anomalousRows();
  const auto groups = table.groupByWithRows(0b0001, anomalous);
  ASSERT_EQ(groups.size(), 1u);  // only a1 has anomalous leaves
  EXPECT_EQ(groups[0].rows.size(), 8u);
  EXPECT_EQ(groups[0].agg.total, 8u);
}

TEST(LeafTable, CoversAllAnomalies) {
  const LeafTable table = tinyTable();
  const Schema& schema = table.schema();
  const auto exact = AttributeCombination::parse(schema, "(a1, *, *, *)").value();
  const auto partial =
      AttributeCombination::parse(schema, "(a1, b1, *, *)").value();
  EXPECT_TRUE(table.coversAllAnomalies({exact}));
  EXPECT_FALSE(table.coversAllAnomalies({partial}));
  EXPECT_FALSE(table.coversAllAnomalies({}));
  const auto other = AttributeCombination::parse(schema, "(a1, b2, *, *)").value();
  EXPECT_TRUE(table.coversAllAnomalies({partial, other}));
}

TEST(LeafTable, SparseTableGroupsOnlyPresentLeaves) {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  table.addRow(leafFromIndex(schema, 0), 1.0, 1.0, false);
  table.addRow(leafFromIndex(schema, 5), 2.0, 2.0, true);
  const auto groups = table.groupBy(0b1111);
  EXPECT_EQ(groups.size(), 2u);
}

TEST(LeafTable, DuplicateLeavesAccumulate) {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  const auto leaf = leafFromIndex(schema, 3);
  table.addRow(leaf, 1.0, 2.0, true);
  table.addRow(leaf, 3.0, 4.0, false);
  const auto agg = table.aggregateFor(leaf);
  EXPECT_EQ(agg.total, 2u);
  EXPECT_EQ(agg.anomalous, 1u);
  EXPECT_DOUBLE_EQ(agg.v_sum, 4.0);
  EXPECT_DOUBLE_EQ(agg.f_sum, 6.0);
}

TEST(LeafTableDeathTest, AddRowRejectsWildcardAndOutOfRangeIds) {
  const Schema schema = Schema::tiny();  // A(3), B(2), C(2), D(2)
  LeafTable table(schema);
  const auto addSlots = [&table](std::vector<ElemId> slots) {
    table.addRow(std::span<const ElemId>(slots), 1.0, 1.0, false);
  };
  addSlots({2, 1, 1, 1});  // the largest id of every slot is accepted
  EXPECT_EQ(table.size(), 1u);
  EXPECT_DEATH(addSlots({0, kWildcard, 0, 0}),
               "row must be a most fine-grained combination");
  EXPECT_DEATH(addSlots({0, -2, 0, 0}), "element id out of range in slot 1");
  EXPECT_DEATH(addSlots({0, 0, 0, 2}), "element id out of range in slot 3");
  EXPECT_DEATH(addSlots({3, 0, 0, 0}), "element id out of range in slot 0");
  EXPECT_DEATH(addSlots({0, 0, 0}), "row arity 3 vs schema 4");
  EXPECT_DEATH(addSlots({0, 0, 0, 0, 0}), "row arity 5 vs schema 4");
}

TEST(Schema, CardinalitiesMatchAttributes) {
  const Schema schema = Schema::cdn();
  const auto cardinalities = schema.cardinalities();
  ASSERT_EQ(cardinalities.size(), 4u);
  for (AttrId a = 0; a < schema.attributeCount(); ++a) {
    EXPECT_EQ(cardinalities[static_cast<std::size_t>(a)],
              schema.attribute(a).cardinality());
  }
  const Schema copy = schema;  // copies share the one cached array
  EXPECT_EQ(copy.cardinalities().data(), cardinalities.data());
}

TEST(Schema, PackedLayoutOfTheCdnSchema) {
  // Location(33) 6 bits, AccessType(4) 2, OS(4) 2, Website(20) 5; the
  // first attribute is the most significant field.
  const Schema schema = Schema::cdn();
  EXPECT_EQ(schema.fieldMask(0), std::uint64_t{0x3F} << 9);
  EXPECT_EQ(schema.fieldMask(1), std::uint64_t{0x3} << 7);
  EXPECT_EQ(schema.fieldMask(2), std::uint64_t{0x3} << 5);
  EXPECT_EQ(schema.fieldMask(3), std::uint64_t{0x1F});
  EXPECT_EQ(schema.lastLeafKey(), (32u << 9) | (3u << 7) | (3u << 5) | 19u);
  const std::vector<ElemId> slots = {32, 3, 1, 19};
  const std::uint64_t key = schema.pack(slots);
  EXPECT_EQ(key, (32u << 9) | (3u << 7) | (1u << 5) | 19u);
  for (AttrId a = 0; a < 4; ++a) {
    EXPECT_EQ(schema.field(key, a), slots[static_cast<std::size_t>(a)]);
  }
  EXPECT_TRUE(schema.isLeafKey(key));
  EXPECT_FALSE(schema.isLeafKey(key + (1u << 9)));    // Location 33
  EXPECT_FALSE(schema.isLeafKey((key & ~0x1Full) | 20u));  // Website 20
  EXPECT_FALSE(schema.isLeafKey(key | (1u << 15)));   // past the key
  // Dense cells span the projections up to the last leaf's: Location x
  // AccessType x Website projects (32, 3, 19) to 32 << 7 | 3 << 5 | 19.
  EXPECT_EQ(KeyProjection(schema, 0b1011).cells(), 4212u);
  // Single-element attributes take no bits.
  const Schema sparse = Schema::synthetic({1, 5, 1});
  EXPECT_EQ(sparse.fieldMask(0), 0u);
  EXPECT_EQ(sparse.fieldMask(1), 0x7u);
  EXPECT_EQ(sparse.fieldMask(2), 0u);
}

TEST(LeafTable, AddKeyAppendsWhatAddRowPacks) {
  const Schema schema = Schema::cdn();
  LeafTable table(schema);
  table.addRow(leafFromIndex(schema, 10559), 1.0, 2.0, true);
  table.addKey(table.key(0), 3.0, 4.0, false);
  EXPECT_EQ(table.leaf(1), table.leaf(0));
  EXPECT_EQ(table.key(1), schema.pack(std::vector<ElemId>{32, 3, 3, 19}));
  EXPECT_EQ(table.v(1), 3.0);
  EXPECT_FALSE(table.isAnomalous(1));
  EXPECT_EQ(table.combination(1, 0b1001).toString(schema),
            "(L33, *, *, Site20)");
}

TEST(LeafTableDeathTest, AddKeyRejectsKeysThatAreNoLeaf) {
  const Schema schema = Schema::cdn();
  LeafTable table(schema);
  EXPECT_DEATH(table.addKey(std::uint64_t{33} << 9, 1.0, 1.0, false),
               "is not a leaf of the schema");
  EXPECT_DEATH(table.addKey(std::uint64_t{1} << 15, 1.0, 1.0, false),
               "is not a leaf of the schema");
}

TEST(LeafTable, RowsReturnWhatAddRowReceived) {
  const Schema schema = Schema::tiny();
  const std::vector<LeafRow> added = {
      {leafFromIndex(schema, 7), 1.5, 2.5, true},
      {leafFromIndex(schema, 0), -3.0, 0.0, false},
      {leafFromIndex(schema, 7), 1.5, 2.5, true},  // duplicate leaf
      {leafFromIndex(schema, 23), 1e300, 5e-324, false},
  };
  LeafTable table(schema);
  table.addRow(added[0]);
  table.addRow(added[1].ac, added[1].v, added[1].f, added[1].anomalous);
  table.addRow(added[2].ac.slots(), added[2].v, added[2].f, added[2].anomalous);
  table.addRow(added[3]);

  const auto expectRows = [](const LeafTable& t,
                             const std::vector<LeafRow>& want) {
    ASSERT_EQ(t.size(), want.size());
    RowId id = 0;
    for (const auto& row : t.rows()) {
      for (const LeafRow& got : {row, t.row(id)}) {
        EXPECT_EQ(got.ac, want[id].ac) << "row " << id;
        EXPECT_EQ(got.v, want[id].v) << "row " << id;
        EXPECT_EQ(got.f, want[id].f) << "row " << id;
        EXPECT_EQ(got.anomalous, want[id].anomalous) << "row " << id;
      }
      ++id;
    }
    EXPECT_EQ(id, want.size());
  };
  expectRows(table, added);

  LeafTable copy = table;
  expectRows(copy, added);
  const LeafTable moved = std::move(copy);
  expectRows(moved, added);

  table.setAnomalous(1, true);
  table.setAnomalous(2, false);
  std::vector<LeafRow> flipped = added;
  flipped[1].anomalous = true;
  flipped[2].anomalous = false;
  expectRows(table, flipped);
  expectRows(moved, added);  // the copy is independent
}

/// 400 random rows cycling over 60 random leaves of a schema whose full
/// cuboid (64^4 cells) exceeds LeafTable::kDenseLimit: each leaf's group
/// sums six or seven values, so an accumulation order other than row
/// order shows in the low bits.
LeafTable aboveDenseLimitTable() {
  const Schema schema = Schema::synthetic({64, 64, 64, 64});
  util::Rng rng(515);
  std::vector<AttributeCombination> leaves;
  for (int i = 0; i < 60; ++i) {
    leaves.push_back(leafFromIndex(
        schema, static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(schema.leafCount()) - 1))));
  }
  LeafTable table(schema);
  for (int r = 0; r < 400; ++r) {
    table.addRow(leaves[static_cast<std::size_t>(r % 60)],
                 rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                 rng.bernoulli(0.3));
  }
  return table;
}

TEST(LeafTable, SortFallbackAboveDenseLimitMatchesScan) {
  const LeafTable table = aboveDenseLimitTable();
  const Schema& schema = table.schema();
  const CuboidMask full = allAttributesMask(schema);
  ASSERT_GT(cuboidSize(schema, full), LeafTable::kDenseLimit);
  // One scratch across every cuboid, twice: the dense and the sort
  // paths must each leave it clean for the other.
  GroupByScratch scratch;
  std::vector<KeyedGroup> out;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto mask : allCuboidsByLayer(full)) {
      const KeyProjection projection(schema, mask);
      const std::size_t count = table.groupByInto(mask, scratch, out);
      std::uint64_t total = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const auto ac = table.combination(out[i].first_row, mask);
        const auto expected = table.aggregateFor(ac);
        EXPECT_EQ(ac.cuboidMask(), mask);
        EXPECT_EQ(out[i].total, expected.total) << "mask=" << mask;
        EXPECT_EQ(out[i].anomalous, expected.anomalous);
        EXPECT_EQ(projection(table.key(out[i].first_row)), out[i].key);
        if (i > 0) {
          EXPECT_LT(out[i - 1].key, out[i].key);
          EXPECT_LT(table.combination(out[i - 1].first_row, mask), ac);
        }
        total += out[i].total;
      }
      EXPECT_EQ(total, table.size()) << "mask=" << mask;
      // The decoded groups carry the same support and row-order sums.
      const auto decoded = table.groupBy(mask);
      ASSERT_EQ(decoded.size(), count);
      for (std::size_t i = 0; i < count; ++i) {
        const auto expected = table.aggregateFor(decoded[i].ac);
        EXPECT_EQ(decoded[i].ac, table.combination(out[i].first_row, mask));
        EXPECT_EQ(decoded[i].total, expected.total);
        EXPECT_EQ(decoded[i].v_sum, expected.v_sum);  // bit for bit
        EXPECT_EQ(decoded[i].f_sum, expected.f_sum);
      }
    }
  }
  EXPECT_EQ(table.groupBy(full).size(), 60u);
}

TEST(LeafTable, GroupByWithRowsListsMembersAboveDenseLimit) {
  const LeafTable table = aboveDenseLimitTable();
  const CuboidMask full = allAttributesMask(table.schema());
  std::vector<RowId> subset;
  for (RowId id = table.size(); id-- > 0;) {
    if (id % 3 != 0) subset.push_back(id);  // descending: order must hold
  }
  for (const auto& rows : {std::vector<RowId>{}, subset}) {
    const auto groups = rows.empty() ? table.groupByWithRows(full)
                                     : table.groupByWithRows(full, rows);
    std::size_t members = 0;
    for (const auto& g : groups) {
      ASSERT_EQ(g.rows.size(), g.agg.total);
      double v_sum = 0.0;
      for (const RowId id : g.rows) {
        EXPECT_TRUE(table.rowMatches(id, g.agg.ac));
        v_sum += table.v(id);
      }
      EXPECT_EQ(v_sum, g.agg.v_sum);  // accumulated in member order
      members += g.rows.size();
    }
    EXPECT_EQ(members, rows.empty() ? table.size() : rows.size());
  }
}

}  // namespace
}  // namespace rap::dataset
