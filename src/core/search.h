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
// Support counts come from LeafTable::forEachGroup, which emits each
// group as the projection of its packed leaf keys onto the cuboid, with
// its counts and first row; only an accepted group is decoded into an
// AttributeCombination, from its first row.
// Criteria 3 is a per-row test: every row of a group in cuboid M has the
// same projection onto M, so the group has an accepted proper ancestor
// exactly when its first row belongs to an accepted candidate whose
// cuboid is a proper subset of M.  Before a cuboid's groups are judged,
// the member rows of those candidates are stamped; the early stop keeps
// a covered flag per row and a count of the anomalous rows still
// uncovered.
//
// One entry point, one schedule.  A single thread walks each layer's
// cuboids in the canonical visit order and accepts their surviving
// groups, applying the early stop and the counters.  Judging a cuboid
// (stamps, Criteria 3, Criteria 2, member rows) is independent of the
// other cuboids of its layer: stamps only ever come from candidates at
// strictly lower layers (a same-layer cuboid is never a proper subset).
// So when the caller passes a util::ThreadPool, workers idle at that
// moment join as helpers and judge cuboids a few places ahead of the
// walk, into a small ring of outcome slots; without a pool, or with no
// idle worker, the walk judges each cuboid itself right before
// accepting it.  Either way the results are bit-identical.
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

  /// Memory of one judging thread (slot 0 is the walk's own thread).
  struct Worker {
    dataset::GroupByScratch scratch;
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
      std::uint64_t key = 0;            ///< the group's projection
      double confidence = 0.0;
      std::uint32_t index = 0;          ///< position among the groups
      std::uint32_t pruned_before = 0;  ///< Criteria-3 skips before it
      std::uint32_t rows_begin = 0;     ///< members: rows[rows_begin, +total)
      std::uint32_t total = 0;
    };
    /// Position in its layer of the cuboid judged into this slot
    /// (kNone: none yet this layer).
    static constexpr std::size_t kNone = ~std::size_t{0};
    std::size_t cuboid = kNone;
    std::uint64_t groups = 0;  ///< groups with at least one leaf
    std::uint64_t pruned = 0;  ///< groups with an accepted proper ancestor
    std::vector<Accepted> accepted;
    std::vector<dataset::RowId> rows;
  };

  /// An accepted candidate: its cuboid and member rows
  /// (candidate_rows[rows_begin, rows_end), or pending_rows while its
  /// layer is being walked), the first of which decodes it.
  struct Candidate {
    dataset::CuboidMask mask = 0;
    std::int32_t layer = 0;
    double confidence = 0.0;
    std::size_t rows_begin = 0;
    std::size_t rows_end = 0;
  };

  /// Per-thread memory; sized to the widest fan-out seen so far.
  std::vector<Worker> workers;
  /// Ring of outcome slots: cuboid i of a layer is judged into slot
  /// i % R, where R = 2 x (helpers + 1), or 1 when the walk judges
  /// alone.
  std::vector<Outcome> outcomes;
  /// Candidates of the layers already walked — what judging reads for
  /// Criteria 3, so it stays unchanged while a layer is being walked.
  std::vector<Candidate> candidates;
  std::vector<dataset::RowId> candidate_rows;
  /// The current layer's accepted candidates, spliced into `candidates`
  /// once its helpers have left.
  std::vector<Candidate> pending;
  std::vector<dataset::RowId> pending_rows;
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
/// combination per candidate (plus `stats.layers` growth, if any); with
/// a pool, also one fan-out block per layer of more than one cuboid.
///
/// With a pool, each layer enlists at most as many helper tasks as the
/// pool has idle workers at that moment (and one fewer than the layer
/// has cuboids); the calling thread judges whatever no helper claimed.
/// The results are bit for bit those of the search without a pool, the
/// stats included: when a layer early-stops mid-way, helpers stop
/// claiming and outcomes judged past the stop point are discarded.  The
/// caller waits only for helpers that started, so the pool may be the
/// one the caller itself runs on, saturated or shutting down.
std::vector<ScoredPattern> acGuidedSearch(
    const dataset::LeafTable& table,
    const std::vector<dataset::AttrId>& kept_attributes,
    const SearchConfig& config, SearchWorkspace& workspace,
    SearchStats& stats, util::ThreadPool* pool = nullptr);

}  // namespace rap::core
