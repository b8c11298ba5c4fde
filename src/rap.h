// Umbrella public header: everything a typical embedder of the RAPMiner
// localization pipeline needs.
//
//   #include "rap.h"
//
//   using namespace rap;
//   dataset::Schema schema = dataset::Schema::cdn();
//   dataset::LeafTable table(schema);
//   ... fill rows, run a detect:: detector for verdicts ...
//   auto miner = core::RapMiner::Builder().tConf(0.9).build();
//   if (!miner.isOk()) { /* miner.status() explains why */ }
//   util::ThreadPool pool(7);  // optional: 7 workers + the caller
//   core::LocalizationResult result = miner->localize(table, 5, &pool);
//   std::puts(core::renderReport(schema, result).c_str());
//
// Subsystems with their own lifecycles (streaming ingestion, evaluation
// harnesses, baselines, generators) keep dedicated headers — include
// "stream/engine.h", "eval/runner.h", ... on top as needed.
#pragma once

#include "core/classification_power.h"  // Algorithm 1 (Criteria 1)
#include "core/rapminer.h"              // RapMiner + Builder + configs
#include "core/report.h"                // human-readable result rendering
#include "core/search.h"                // Algorithm 2 entry point
#include "core/types.h"                 // ScoredPattern / LocalizationResult
#include "dataset/attribute_combination.h"
#include "dataset/cuboid.h"
#include "dataset/leaf_table.h"         // columnar dataset D + group-by
#include "dataset/schema.h"
#include "detect/detector.h"            // per-leaf verdicts
#include "util/status.h"
