// Stage 2 of RAPMiner: Anomaly-Confidence guided layer-by-layer top-down
// search (paper §IV-D, Algorithm 2).
//
// BFS over the cuboid lattice of the surviving attributes, coarsest layer
// first.  Within each layer, cuboids with higher total classification
// power are visited first (Algorithm 1 returns attributes sorted by CP,
// and the search honors that order), which makes the early stop bite
// sooner.  A combination with Confidence > t_conf (Criteria 2) whose
// ancestors were all normal becomes a candidate RAP; its entire
// descendant sub-DAG is pruned (Criteria 3).  The search early-stops as
// soon as the candidates cover every anomalous leaf.
//
// Support counts come from LeafTable::groupByInto, which emits each
// group as a mixed-radix key with its counts and first row; a group is
// decoded into an AttributeCombination only once it is accepted.
// Criteria 3 is a per-row test: every row of a group in cuboid M has the
// same projection onto M, so the group has an accepted proper ancestor
// exactly when its first row belongs to an accepted candidate whose
// cuboid is a proper subset of M.  Before a cuboid's groups are judged,
// the member rows of those candidates are stamped; the early stop keeps
// a covered flag per row and a count of the anomalous rows still
// uncovered.
//
// One entry point, two bit-identical schedules chosen by the caller:
//   * no pool — the serial reference implementation;
//   * a caller-owned util::ThreadPool — each layer's cuboids are
//     aggregated and judged (stamps, Criteria 3, Criteria 2, member
//     rows) concurrently, then a single-threaded walk accepts the
//     surviving groups in the canonical visit order and applies the
//     early stop and the counters.  Stamps only ever come from
//     candidates at strictly lower layers (a same-layer cuboid is never
//     a proper subset), so judging a layer's cuboids out of order is
//     safe; the walk re-imposes the canonical order for acceptance and
//     bookkeeping.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/types.h"
#include "dataset/leaf_table.h"
#include "util/thread_pool.h"

namespace rap::core {

/// Visit order of cuboids within one layer (ablation knob; the paper's
/// Algorithm 2 uses the CP-sorted attribute order of Algorithm 1).
enum class CuboidOrder {
  kCpWeighted,  ///< cuboids of higher-CP attributes first (the paper)
  kNumeric,     ///< plain ascending mask order (ablation baseline)
};

struct SearchConfig {
  double t_conf = 0.8;      ///< Criteria 2 confidence threshold
  bool early_stop = true;   ///< Algorithm 2 lines 9-11
  CuboidOrder order = CuboidOrder::kCpWeighted;
  /// Cooperative wall-clock budget for Algorithm 2 in seconds (0 = no
  /// deadline).  Checked before every cuboid aggregation; on expiry the
  /// search returns the candidates accepted so far with
  /// stats.degraded_reason = "deadline" instead of finishing the
  /// lattice.  Granularity is one cuboid: a single aggregation is never
  /// interrupted mid-sweep.
  double deadline_seconds = 0.0;
  /// Hard cap on the cuboid layers visited (0 = all).  A search that
  /// still has layers left when the cap is reached returns degraded
  /// with stats.degraded_reason = "layer-cap".
  std::int32_t max_layers = 0;
};

/// Visit order of cuboids within one layer: descending rank-weight of
/// the member attributes, where the highest-CP attribute (first in
/// `kept`) weighs most; ties break on the mask for determinism.
/// Weights are integer bit-sums (2^(n - rank) per member), computed
/// once per cuboid — exposed so tests can pin the order against the
/// O(C·log C·n) floating-point reference it replaced.
std::vector<dataset::CuboidMask> orderedCuboids(
    const std::vector<dataset::AttrId>& kept, std::int32_t layer,
    CuboidOrder order);

/// Reusable memory plane for one Algorithm-2 search.  Every buffer grows
/// to its workload's high-water mark and is then reused, so a warm
/// search over a same-shaped table allocates only what it returns.  A
/// workspace serves one search at a time; the members are
/// implementation state — treat them as opaque outside src/core and
/// tests.
struct SearchWorkspace {
  SearchWorkspace() = default;
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;

  /// Memory of one fan-out worker (slot 0 is the calling thread).
  struct Worker {
    dataset::GroupByScratch scratch;
    std::vector<dataset::KeyedGroup> groups;
    /// [row] the last epoch in which a candidate whose cuboid is a
    /// proper subset of the cuboid being judged covered the row.
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> fill;  ///< member-row cursors
  };

  /// Criteria 3 and 2 applied to every group of one cuboid: what
  /// judging a cuboid hands the canonical walk.  `accepted` lists the
  /// groups that pass both, in ascending key order; `rows` holds their
  /// member rows, each group's ascending.
  struct Outcome {
    struct Accepted {
      std::uint64_t key = 0;            ///< LeafTable::combination key
      double confidence = 0.0;
      std::uint32_t index = 0;          ///< position among the groups
      std::uint32_t pruned_before = 0;  ///< Criteria-3 skips before it
      std::uint32_t rows_begin = 0;     ///< members: rows[rows_begin, +total)
      std::uint32_t total = 0;
    };
    std::uint64_t groups = 0;  ///< groups with at least one leaf
    std::uint64_t pruned = 0;  ///< groups with an accepted proper ancestor
    std::vector<Accepted> accepted;
    std::vector<dataset::RowId> rows;
  };

  /// An accepted candidate: its cuboid, key and member rows
  /// (candidate_rows[rows_begin, rows_end)).
  struct Candidate {
    dataset::CuboidMask mask = 0;
    std::int32_t layer = 0;
    std::uint64_t key = 0;
    double confidence = 0.0;
    std::size_t rows_begin = 0;
    std::size_t rows_end = 0;
  };

  /// Per-worker memory; sized to the widest fan-out seen so far.
  std::vector<Worker> workers;
  /// Slot i holds cuboid i's outcome for the layer being walked (the
  /// serial schedule uses slot 0 only).
  std::vector<Outcome> outcomes;
  std::vector<Candidate> candidates;
  std::vector<dataset::RowId> candidate_rows;
  std::vector<std::uint8_t> covered;  ///< [row] 1 once a candidate covers it
  std::vector<dataset::CuboidMask> cuboids;  ///< the current layer, in order
  std::vector<std::pair<std::uint64_t, dataset::CuboidMask>> weighted;
};

/// Thread-safe checkout/return pool of SearchWorkspaces.  RapMiner owns
/// one across localize() calls (and svc::JobManager shares one across
/// per-request miners), so the steady-state serving path reuses the
/// scratch capacity instead of reallocating it per localization.
/// Concurrent localizations each check out their own workspace;
/// returned workspaces are retained up to a small cap.
class WorkspacePool {
 public:
  /// RAII checkout: holds a workspace for one search and returns it to
  /// the pool on destruction (workspaces abandoned by an exception are
  /// simply dropped — the pool re-creates on the next acquire).
  class Lease {
   public:
    Lease(WorkspacePool& pool, std::unique_ptr<SearchWorkspace> ws)
        : pool_(&pool), ws_(std::move(ws)) {}
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (ws_ != nullptr) pool_->release(std::move(ws_));
    }
    SearchWorkspace& get() noexcept { return *ws_; }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<SearchWorkspace> ws_;
  };

  Lease lease() { return Lease(*this, acquire()); }

  std::unique_ptr<SearchWorkspace> acquire();
  void release(std::unique_ptr<SearchWorkspace> ws);

  /// Workspaces currently retained (idle), for tests.
  std::size_t retained() const;

 private:
  /// Retention cap: bounds idle memory at (peak concurrency seen) up to
  /// this many workspaces; anything beyond is freed on release.
  static constexpr std::size_t kMaxRetained = 16;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<SearchWorkspace>> free_;
};

/// Runs Algorithm 2 over the cuboids formed by `kept_attributes` (the
/// output of Algorithm 1; its order determines cuboid visit order).
/// Returns all candidate RAPs with confidence and layer filled in; the
/// caller ranks them (Eq. 3) and truncates to k.  `stats` accumulates
/// search-effort counters.
///
/// All working memory comes from `workspace`, so a warm search over a
/// same-shaped table allocates only the returned vector and one
/// combination per candidate (plus `stats.layers` growth, if any).
///
/// With `pool == nullptr` the search runs the serial reference schedule.
/// With a pool, each layer's cuboid evaluations fan out across its
/// workers (the calling thread participates too) and the results are
/// bit for bit those of the serial schedule; when a layer early-stops
/// mid-way, evaluations computed past the stop point are discarded, so
/// the stats match too.  The pool must not run tasks that block on this
/// search.
std::vector<ScoredPattern> acGuidedSearch(
    const dataset::LeafTable& table,
    const std::vector<dataset::AttrId>& kept_attributes,
    const SearchConfig& config, SearchWorkspace& workspace,
    SearchStats& stats, util::ThreadPool* pool = nullptr);

}  // namespace rap::core
