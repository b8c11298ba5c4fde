// RapMiner — the public facade of the paper's contribution.
//
//   rap::core::RapMiner miner(config);
//   rap::core::LocalizationResult result = miner.localize(table, k);
//
// The input LeafTable must carry per-leaf anomaly verdicts (run one of
// the rap::detect detectors first, or load a labeled table).  localize()
// performs:
//   1. Algorithm 1 — CP-based redundant attribute deletion (cp.t_cp);
//   2. Algorithm 2 — AC-guided layer-by-layer top-down search
//      (search.t_conf, early stop), serial, or fanned out across a
//      thread pool the caller passes — the two schedules are
//      bit-identical;
//   3. RAPScore ranking (Eq. 3) and truncation to the top k patterns.
//
// Configuration is nested by pipeline stage:
//
//   RapMinerConfig config;
//   config.cp.t_cp = 0.001;             // Algorithm 1
//   config.search.t_conf = 0.9;         // Algorithm 2
//
// For validated construction (util::Status instead of RAP_CHECK aborts
// on out-of-range thresholds) use RapMiner::Builder.
#pragma once

#include <memory>

#include "core/classification_power.h"
#include "core/search.h"
#include "core/types.h"
#include "dataset/leaf_table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rap::core {

/// Stage 1 (Algorithm 1) knobs.
struct CpConfig {
  /// Criteria 1 threshold; the paper recommends "a very small value"
  /// (below 0.1) and studies sensitivity across a sweep (Fig. 10(a)).
  /// On the synthetic RAPMD background the noise floor of a
  /// RAP-unrelated attribute's CP sits just under this default (around
  /// 3e-4 for clean labels); bench/fig10a sweeps the full range.
  double t_cp = 0.0005;
  /// Disable stage 1 to reproduce the Table VI ablation.
  bool enable_attribute_deletion = true;
};

struct RapMinerConfig {
  CpConfig cp;          ///< Algorithm 1 (Criteria 1)
  SearchConfig search;  ///< Algorithm 2 (Criteria 2/3, visit order)
};

class RapMiner {
 public:
  /// Aborts (RAP_CHECK) on out-of-range thresholds — construction from a
  /// compile-time config is a programming error when invalid.  For
  /// user-supplied configuration use Builder, which validates first.
  explicit RapMiner(RapMinerConfig config = {});

  /// Validating construction for user-supplied (flag/file) thresholds.
  ///
  ///   auto miner = RapMiner::Builder().tConf(t).tCp(c).build();
  ///   if (!miner.isOk()) { ... miner.status() ... }
  class Builder {
   public:
    Builder() = default;
    /// Replace the whole config (then refine with the setters below).
    Builder& config(RapMinerConfig config);
    Builder& tCp(double t_cp);
    Builder& tConf(double t_conf);
    Builder& attributeDeletion(bool enable);
    Builder& earlyStop(bool enable);
    Builder& cuboidOrder(CuboidOrder order);
    /// Wall-clock budget for Algorithm 2 (seconds; 0 disables).
    Builder& deadlineSeconds(double seconds);
    /// Cuboid-layer cap for Algorithm 2 (0 = unlimited).
    Builder& maxLayers(std::int32_t layers);

    /// kInvalidArgument when t_cp is outside [0, 1), t_conf outside
    /// (0, 1], the deadline is negative, or the layer cap is negative.
    /// NaN and infinities are rejected explicitly for every
    /// floating-point threshold — NaN compares false against both ends
    /// of a range check, so it must never reach the miner.
    util::Status validate() const;

    /// validate() then construct; never aborts.
    util::Result<RapMiner> build() const;

   private:
    RapMinerConfig config_;
  };

  const RapMinerConfig& config() const noexcept { return config_; }

  /// Mines the root anomaly patterns of one labeled leaf table and
  /// returns the top `k` by RAPScore (k <= 0 returns all candidates).
  ///
  /// `pool` (optional) fans each search layer's cuboid aggregations out
  /// across the caller's workers; results are bit-identical to the
  /// serial search run without one.  The pool must not run tasks that
  /// block on this search — give the miner a dedicated search pool, not
  /// the pool the caller's own blocking task runs on.
  ///
  /// `workspaces` (optional) supplies the search workspaces instead of
  /// the miner's own retained pool: callers that rebuild a miner per
  /// request (svc::JobManager) share one WorkspacePool across those
  /// miners so the serving hot path still reuses the aggregation scratch
  /// capacity.
  ///
  /// An input with nothing to localize — an empty table, a schema with
  /// no attributes, or no anomalous leaf — returns an empty result
  /// immediately: patterns empty, every counter zero, stats.layers and
  /// stats.classification_power empty and stats.early_stopped false
  /// (the search never started, so it cannot have stopped early).
  LocalizationResult localize(const dataset::LeafTable& table, std::int32_t k,
                              util::ThreadPool* pool = nullptr,
                              WorkspacePool* workspaces = nullptr) const;

 private:
  RapMinerConfig config_;
  /// Retained search workspaces: repeated localize() calls (and
  /// concurrent ones — each checks out its own workspace) reuse the
  /// aggregation scratch instead of reallocating per call.  Shared so
  /// RapMiner stays copyable.
  std::shared_ptr<WorkspacePool> workspaces_;
};

/// Eq. 3: RAPScore = Confidence / sqrt(Layer).
double rapScore(double confidence, std::int32_t layer) noexcept;

}  // namespace rap::core
