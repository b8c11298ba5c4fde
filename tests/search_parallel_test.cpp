// Parallel-vs-serial equivalence for Algorithm 2: the deterministic
// merge must make the pooled schedule bit-identical to the serial
// reference — patterns, confidences, scores, and every search-effort
// counter.  Also the regression suite for the trivial-input early
// return of RapMiner::localize.  This file runs under the CI TSan job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "core/rapminer.h"
#include "core/search.h"
#include "dataset/cuboid.h"
#include "gen/rapmd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rap {
namespace {

using core::LocalizationResult;
using core::RapMiner;
using core::RapMinerConfig;
using dataset::LeafTable;
using dataset::Schema;

/// Bit-exact equality of results: patterns (including double fields
/// compared with ==, not a tolerance) and the deterministic part of the
/// stats (wall times excluded, schedule-dependent by nature).
void expectBitIdentical(const LocalizationResult& serial,
                        const LocalizationResult& parallel) {
  ASSERT_EQ(serial.patterns.size(), parallel.patterns.size());
  for (std::size_t i = 0; i < serial.patterns.size(); ++i) {
    EXPECT_EQ(serial.patterns[i].ac, parallel.patterns[i].ac) << "i=" << i;
    EXPECT_EQ(serial.patterns[i].confidence, parallel.patterns[i].confidence);
    EXPECT_EQ(serial.patterns[i].layer, parallel.patterns[i].layer);
    EXPECT_EQ(serial.patterns[i].score, parallel.patterns[i].score);
  }
  EXPECT_EQ(serial.stats.kept_attributes, parallel.stats.kept_attributes);
  EXPECT_EQ(serial.stats.attributes_deleted,
            parallel.stats.attributes_deleted);
  EXPECT_EQ(serial.stats.cuboids_visited, parallel.stats.cuboids_visited);
  EXPECT_EQ(serial.stats.combinations_evaluated,
            parallel.stats.combinations_evaluated);
  EXPECT_EQ(serial.stats.combinations_pruned,
            parallel.stats.combinations_pruned);
  EXPECT_EQ(serial.stats.candidates_found, parallel.stats.candidates_found);
  EXPECT_EQ(serial.stats.early_stopped, parallel.stats.early_stopped);
  ASSERT_EQ(serial.stats.layers.size(), parallel.stats.layers.size());
  for (std::size_t i = 0; i < serial.stats.layers.size(); ++i) {
    const auto& a = serial.stats.layers[i];
    const auto& b = parallel.stats.layers[i];
    EXPECT_EQ(a.layer, b.layer);
    EXPECT_EQ(a.cuboids_visited, b.cuboids_visited);
    EXPECT_EQ(a.combinations_evaluated, b.combinations_evaluated);
    EXPECT_EQ(a.combinations_pruned, b.combinations_pruned);
    EXPECT_EQ(a.candidates_found, b.candidates_found);
  }
}

std::vector<gen::Case> rapmdCases(std::uint64_t seed, std::int32_t n,
                                  double label_noise = 0.02) {
  gen::RapmdConfig config;
  config.num_cases = n;
  config.label_noise = label_noise;
  gen::RapmdGenerator generator(Schema::cdn(), config, seed);
  return generator.generate();
}

/// A caller-owned fan-out pool giving `threads` search threads in all
/// (its workers plus the calling thread); none for a single thread, which
/// runs the serial reference schedule.
std::unique_ptr<util::ThreadPool> fanOutPool(std::int32_t threads) {
  if (threads <= 1) return nullptr;
  return std::make_unique<util::ThreadPool>(
      static_cast<std::size_t>(threads - 1));
}

class ThreadSweep : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ThreadSweep, BitIdenticalOnRapmdCases) {
  const std::int32_t threads = GetParam();
  const auto pool = fanOutPool(threads);
  const RapMiner miner;
  // search_threads reports the concurrency actually used, so the pool's
  // width is an upper bound, not the reported value: a layer with c
  // cuboids enlists at most c - 1 helpers.  (The exact-width cases live
  // in the SearchThreads suite below.)
  const auto reported = miner.localize(rapmdCases(1, 1)[0].table, 0, pool.get())
                            .stats.search_threads;
  EXPECT_GE(reported, threads == 1 ? 1 : 2);
  EXPECT_LE(reported, threads);

  for (const auto& c : rapmdCases(20220627, 8)) {
    expectBitIdentical(miner.localize(c.table, 0),
                       miner.localize(c.table, 0, pool.get()));
  }
}

TEST_P(ThreadSweep, BitIdenticalOnExhaustiveSearch) {
  // Deletion off + early stop off: every layer of the full lattice goes
  // through the merge, the worst case for ordering bugs.
  const auto pool = fanOutPool(GetParam());
  RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  config.search.early_stop = false;
  const RapMiner miner(config);
  for (const auto& c : rapmdCases(7, 4, /*label_noise=*/0.05)) {
    expectBitIdentical(miner.localize(c.table, 0),
                       miner.localize(c.table, 0, pool.get()));
  }
}

TEST_P(ThreadSweep, BitIdenticalAboveTheDenseLimit) {
  // The full cuboid of a 64^4 schema exceeds LeafTable::kDenseLimit, so
  // the exhaustive search aggregates its last layer by the sort fallback.
  const Schema schema = Schema::synthetic({64, 64, 64, 64});
  util::Rng rng(2022);
  LeafTable table(schema);
  for (int r = 0; r < 300; ++r) {
    const auto leaf = dataset::leafFromIndex(
        schema, static_cast<std::uint64_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(schema.leafCount()) - 1)));
    const bool anomalous = rng.bernoulli(0.3);
    table.addRow(leaf, anomalous ? 10.0 : 100.0, 100.0, anomalous);
    if (rng.bernoulli(0.2)) table.addRow(leaf, 90.0, 100.0, false);
  }
  RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  config.search.early_stop = false;
  const RapMiner miner(config);
  const auto pool = fanOutPool(GetParam());
  const auto serial = miner.localize(table, 0);
  ASSERT_EQ(serial.stats.layers.size(), 4u);
  EXPECT_FALSE(serial.patterns.empty());
  expectBitIdentical(serial, miner.localize(table, 0, pool.get()));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweep,
                         ::testing::Values(1, 2, 4, 8));

TEST(ParallelSearch, CallerPoolSetsTheFanOutWidth) {
  util::ThreadPool pool(3);
  const RapMiner miner;
  const auto c = rapmdCases(99, 1)[0];
  const auto serial = miner.localize(c.table, 0);
  const auto fanned = miner.localize(c.table, 0, &pool);
  EXPECT_EQ(serial.stats.search_threads, 1);
  EXPECT_EQ(fanned.stats.search_threads, 4);  // 3 workers + caller
  expectBitIdentical(serial, fanned);
}

TEST(ParallelSearch, SharedPoolSurvivesConcurrentLocalizations) {
  // Two threads localize different tables through one fan-out pool at
  // once — the per-call completion latch must keep them independent.
  util::ThreadPool pool(2);
  const RapMiner miner;
  const auto cases = rapmdCases(123, 4);
  std::vector<LocalizationResult> serial;
  for (const auto& c : cases) serial.push_back(miner.localize(c.table, 0));

  std::vector<LocalizationResult> parallel(cases.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = t; i < cases.size(); i += 2) {
        parallel[i] = miner.localize(cases[i].table, 0, &pool);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expectBitIdentical(serial[i], parallel[i]);
  }
}

TEST(ParallelSearch, PoolTasksLocalizeThroughTheirOwnPool) {
  // The served pattern: every worker of a 1- and a 2-worker pool runs a
  // task that localizes through that same pool, with more tasks queued
  // behind them.  A search waits only for helpers that started, so the
  // saturated pool cannot deadlock on helpers queued behind the tasks
  // that enlisted them (ctest's TIMEOUT turns a regression into a
  // failure instead of a hang).
  const auto cases = rapmdCases(606, 6);
  RapMinerConfig exhaustive;
  exhaustive.cp.enable_attribute_deletion = false;
  exhaustive.search.early_stop = false;
  for (const RapMinerConfig& config : {RapMinerConfig{}, exhaustive}) {
    const RapMiner miner(config);
    std::vector<LocalizationResult> serial;
    for (const auto& c : cases) serial.push_back(miner.localize(c.table, 0));
    for (const std::size_t workers : {1u, 2u}) {
      util::ThreadPool pool(workers);
      std::vector<LocalizationResult> pooled(cases.size());
      // A latch, not the pool's destructor: once shutdown begins,
      // submitToIdle enlists no helper and the fan-out goes untested.
      std::latch done(static_cast<std::ptrdiff_t>(cases.size()));
      for (std::size_t i = 0; i < cases.size(); ++i) {
        pool.submit([&miner, &cases, &pooled, &pool, &done, i] {
          pooled[i] = miner.localize(cases[i].table, 0, &pool);
          done.count_down();
        });
      }
      done.wait();
      for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(::testing::Message() << "workers=" << workers
                                          << " case=" << i);
        expectBitIdentical(serial[i], pooled[i]);
        EXPECT_LE(pooled[i].stats.search_threads,
                  static_cast<std::int32_t>(workers) + 1);
      }
    }
  }
}

// ------------------------------------------ threads actually used

/// Fully populated labeled table over Schema::synthetic(cards); every
/// third leaf anomalous so the search has work at every layer.
LeafTable syntheticTable(const std::vector<std::int32_t>& cards) {
  const Schema schema = Schema::synthetic(cards);
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    const bool anomalous = i % 3 == 0;
    table.addRow(dataset::leafFromIndex(schema, i), anomalous ? 10.0 : 100.0,
                 100.0, anomalous);
  }
  return table;
}

TEST(SearchThreads, SingleCuboidLayersStaySerial) {
  // One attribute: every layer has exactly one cuboid, so the parallel
  // schedule never engages.  The stat must say 1 — this used to report
  // pool size + 1 regardless of what the layers could use.
  util::ThreadPool pool(3);
  RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  const auto result =
      RapMiner(config).localize(syntheticTable({6}), 0, &pool);
  EXPECT_EQ(result.stats.search_threads, 1);
}

TEST(SearchThreads, CappedByWidestLayer) {
  // Two attributes, deletion and early stop off: layer 1 has 2 cuboids
  // (at most 1 helper), layer 2 has 1 (serial).  Even an 8-worker pool
  // must report 2 threads used, not 9.
  util::ThreadPool pool(8);
  RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  config.search.early_stop = false;
  const auto result =
      RapMiner(config).localize(syntheticTable({3, 2}), 0, &pool);
  EXPECT_EQ(result.stats.search_threads, 2);
}

TEST(SearchThreads, WideLayersUseTheWholePool) {
  // Four kept attributes give layer 1 four cuboids — enough to enlist
  // both workers of a 2-worker pool: 2 helpers + the caller.
  util::ThreadPool pool(2);
  RapMinerConfig config;
  config.cp.enable_attribute_deletion = false;
  const auto c = rapmdCases(42, 1)[0];
  EXPECT_EQ(RapMiner(config).localize(c.table, 0, &pool).stats.search_threads,
            3);
}

// --------------------------------------------------- cuboid visit order

TEST(OrderedCuboids, IntegerWeightsMatchPowReference) {
  // The integer bit-sum weights must reproduce the retired
  // std::pow(2.0, n - rank) stable_sort comparator exactly: every term
  // and sum is < 2^53, hence exact in double as well, and the mask-asc
  // tiebreak matches stability over cuboidsAtLayer's ascending output.
  const std::vector<std::vector<dataset::AttrId>> kept_sets = {
      {0, 1, 2, 3}, {3, 1, 0, 2}, {2, 0, 4, 1, 3}, {1, 0}, {5}};
  for (const auto& kept : kept_sets) {
    const auto n = static_cast<std::int32_t>(kept.size());
    const auto weight = [&](dataset::CuboidMask mask) {
      double w = 0.0;
      for (std::int32_t rank = 0; rank < n; ++rank) {
        if ((mask & (1u << kept[static_cast<std::size_t>(rank)])) != 0) {
          w += std::pow(2.0, n - rank);
        }
      }
      return w;
    };
    for (std::int32_t layer = 1; layer <= n; ++layer) {
      const auto ordered =
          core::orderedCuboids(kept, layer, core::CuboidOrder::kCpWeighted);
      auto reference =
          core::orderedCuboids(kept, layer, core::CuboidOrder::kNumeric);
      std::stable_sort(reference.begin(), reference.end(),
                       [&weight](dataset::CuboidMask a, dataset::CuboidMask b) {
                         return weight(a) > weight(b);
                       });
      EXPECT_EQ(ordered, reference)
          << "n=" << n << " layer=" << layer;
    }
  }
}

// ----------------------------------------------- workspace retention

TEST(SearchWorkspace, RetainedWorkspaceBitIdenticalAcrossSearches) {
  // One WorkspacePool shared across repeated localizations: passes two
  // and three reuse pass one's aggregation scratch capacity
  // (the steady state the allocation-free hot path relies on), and every
  // result must stay bit-identical to a fresh serial miner's.
  core::WorkspacePool shared;
  util::ThreadPool pool(3);
  const RapMiner miner;
  const auto cases = rapmdCases(314, 3);
  std::vector<LocalizationResult> reference;
  for (const auto& c : cases) reference.push_back(miner.localize(c.table, 0));
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      expectBitIdentical(reference[i],
                         miner.localize(cases[i].table, 0, &pool, &shared));
    }
  }
  // A single caller checks out one workspace at a time, so exactly one
  // is retained across all nine searches.
  EXPECT_EQ(shared.retained(), 1u);
}

TEST(SearchWorkspace, ConcurrentLeasesStayIndependent) {
  // TSan case: two caller threads lease from one WorkspacePool and
  // localize concurrently through one fan-out pool.  Each lease must be
  // a private workspace — only the table is shared read-only, across
  // both searches and their helpers.
  core::WorkspacePool shared;
  util::ThreadPool pool(2);
  const RapMiner miner;
  const auto cases = rapmdCases(2718, 4);
  std::vector<LocalizationResult> reference;
  for (const auto& c : cases) reference.push_back(miner.localize(c.table, 0));
  std::vector<LocalizationResult> observed(cases.size());
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      for (std::size_t i = t; i < cases.size(); i += 2) {
        observed[i] = miner.localize(cases[i].table, 0, &pool, &shared);
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    expectBitIdentical(reference[i], observed[i]);
  }
  EXPECT_GE(shared.retained(), 1u);
  EXPECT_LE(shared.retained(), 2u);
}

// ------------------------------------------- trivial-input early return

/// The documented contract: empty result, zero counters, empty layers
/// and classification_power, early_stopped false.
void expectUntouchedStats(const LocalizationResult& result) {
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_TRUE(result.stats.classification_power.empty());
  EXPECT_TRUE(result.stats.kept_attributes.empty());
  EXPECT_TRUE(result.stats.layers.empty());
  EXPECT_EQ(result.stats.attributes_deleted, 0);
  EXPECT_EQ(result.stats.cuboids_visited, 0u);
  EXPECT_EQ(result.stats.combinations_evaluated, 0u);
  EXPECT_EQ(result.stats.candidates_found, 0u);
  EXPECT_FALSE(result.stats.early_stopped);
}

TEST(LocalizeEarlyReturn, EmptyTable) {
  const LeafTable table(Schema::tiny());
  expectUntouchedStats(RapMiner().localize(table, 5));
}

TEST(LocalizeEarlyReturn, NoAnomalousLeaves) {
  const Schema schema = Schema::tiny();
  LeafTable table(schema);
  for (std::uint64_t i = 0; i < schema.leafCount(); ++i) {
    table.addRow(dataset::leafFromIndex(schema, i), 100.0, 100.0, false);
  }
  expectUntouchedStats(RapMiner().localize(table, 5));
}

}  // namespace
}  // namespace rap
