// Localization job manager (src/svc) — a bounded priority queue of
// localization requests feeding a util::ThreadPool, with admission
// control, per-job config overrides, and a shared ResultCache.
//
// Why a queue in front of the pool: a CDN incident fans the same alarm
// out to many upstream detectors at once, so the service sees bursts far
// above its sustainable localization rate.  The pool alone would accept
// every burst and grow an invisible backlog; the bounded queue instead
// SHEDS load at admission time (submit() returns kOutOfRange -> HTTP 429
// with Retry-After) so callers get immediate, honest backpressure —
// the same philosophy as the stream engine's drop-oldest shard queues,
// but caller-visible because here the caller is a remote client that can
// retry.
//
// Priorities are small integers (higher = sooner); within a priority,
// FIFO by submission order.  Each admission dispatches a non-blocking
// drainOne closure through ThreadPool::submit; the closure pops and
// executes at most one job (bouncing off pause/quota/shutdown instead
// of parking a pool thread), so many managers can safely draw from one
// shared pool — the multi-tenant catalog gives every tenant its own
// manager, quota (`max_active`), and metric labels over a process-wide
// pool.  Each job runs under its own RapMiner built from the job's
// config (validated at admission — a bad override is a 400 at submit
// time, never a RAP_CHECK abort in a worker).  Every search, queued or
// sync, passes that executing pool to RapMiner::localize, so Algorithm 2
// borrows whichever workers are idle at each layer and never waits on
// one that is busy.
//
// Every execution consults the ResultCache first (keyed by the request's
// content hash) and stores its rendered result document on completion,
// so identical resubmissions — sync or async — are served bit-identical
// without re-running the search.
//
// Observability: rap_svc_* metrics (docs/observability.md), one
// "svc/execute" span per job, and a "svc/job" trace flow linking
// admission to execution across threads.  Fault points "svc.submit" and
// "svc.execute" (docs/robustness.md) let chaos tests fail admission and
// execution deterministically.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/rapminer.h"
#include "dataset/leaf_table.h"
#include "obs/metrics.h"
#include "svc/overload.h"
#include "svc/result_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rap::svc {

class CircuitBreaker;

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
};

const char* jobStateName(JobState state) noexcept;

/// One admitted localization request.
struct JobRequest {
  explicit JobRequest(dataset::LeafTable snapshot)
      : table(std::move(snapshot)) {}

  dataset::LeafTable table;
  core::RapMinerConfig miner;  ///< validated by the caller (Builder)
  std::int32_t k = 5;
  /// Applied (relative-deviation detector) when the table carries no
  /// anomalous verdicts — a raw real/predict upload without labels.
  double detect_threshold = 0.095;
  std::int32_t priority = 0;  ///< higher runs sooner
  /// Content hash of the originating request (cache key); 0 = uncached.
  std::uint64_t cache_key = 0;
  /// The caller already looked cache_key up and missed (the service's
  /// pre-parse fast path), so execution skips its own lookup and the
  /// request counts one lookup in ResultCache::stats(), not two.  The
  /// result is still stored under cache_key.
  bool cache_checked = false;
  /// Durable journal record backing this job; 0 = not journaled.  The
  /// on_terminal callback hands it back so the service can write the
  /// completion marker.
  std::uint64_t journal_record = 0;
};

/// Snapshot of one job's lifecycle, safe to serialize.
struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::int32_t priority = 0;
  bool cache_hit = false;
  /// Effective search deadline after clamping (0 = none) — surfaced in
  /// the job JSON so callers see the budget their job actually ran with.
  double deadline_seconds = 0.0;
  double queued_seconds = 0.0;  ///< admission -> start (or now)
  double run_seconds = 0.0;     ///< start -> finish (or now)
  std::string result_json;      ///< kDone only: rendered result document
  std::string error;            ///< kFailed only
};

class JobManager {
 public:
  struct Options {
    /// Queued (not yet running) jobs beyond which submit() sheds load.
    std::size_t queue_capacity = 64;
    /// Pool workers executing localizations.
    std::size_t workers = 2;
    /// Advisory Retry-After the service returns on shed load.
    double retry_after_seconds = 1.0;
    /// Finished jobs retained for GET /api/v1/jobs/<id>; older finished
    /// jobs are forgotten FIFO.
    std::size_t max_finished_jobs = 256;
    /// Jobs from this manager allowed to execute concurrently; 0 means
    /// bounded only by the pool.  This is the per-tenant admission
    /// quota when many managers draw from one shared pool — a burst on
    /// one tenant queues behind its own quota instead of starving the
    /// others' workers.
    std::size_t max_active = 0;
    /// Labels stamped on every rap_svc_* series this manager creates
    /// (the catalog passes {{"tenant", name}}); empty keeps the
    /// unlabeled legacy series.
    obs::Labels metric_labels;
    /// Execute on this externally owned pool instead of spawning
    /// `workers` dedicated threads.  The pool must outlive the manager;
    /// the destructor returns only after every closure this manager
    /// dispatched has left the pool, so tearing down one tenant never
    /// leaves a dangling task behind.
    util::ThreadPool* shared_pool = nullptr;
    /// CoDel-style queue-delay shedding (svc/overload.h): disabled by
    /// default (target 0), submit() sheds with Status::unavailable
    /// (-> 429 `overloaded`) when the head-of-line delay stays above
    /// target for a full interval.
    OverloadGuard::Options overload;
    /// Per-tenant circuit breaker recording execute outcomes; not
    /// owned, may be null (the LocalizeService wires its own).
    CircuitBreaker* breaker = nullptr;
    /// Fired (outside all manager locks) each time a QUEUED job reaches
    /// a terminal state — the journal's completion-marker hook.
    /// (id, journal_record, ok); not called for executeInline.
    std::function<void(std::uint64_t, std::uint64_t, bool)> on_terminal;
  };

  /// `cache` may be nullptr (no caching); it must outlive the manager.
  explicit JobManager(Options options, ResultCache* cache = nullptr);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Admits a job: the id on success, kOutOfRange when the queue is full
  /// (shed load — the HTTP layer maps this to 429), kUnavailable when
  /// the overload guard sheds on sustained queue delay (429 with the
  /// `overloaded` code), kFailedPrecondition after shutdown began.
  util::Result<std::uint64_t> submit(JobRequest request);

  /// The journal-replay admission path: the work was accepted (and
  /// answered 202) before the crash, so capacity and overload checks do
  /// not apply — only the shutdown check.  No "svc.submit" fault point.
  util::Result<std::uint64_t> resubmit(JobRequest request);

  /// Runs a request synchronously on the calling thread (the service's
  /// sync mode) — same cache/execute path as queued jobs, no admission
  /// control; its search may borrow idle workers of the executing pool.
  /// Returns the rendered result document.
  util::Result<std::string> executeInline(JobRequest request);

  /// While paused, admitted jobs stay queued (workers idle); tests use
  /// this to fill the bounded queue deterministically.
  void pause();
  void resume();
  bool paused() const;

  std::optional<JobStatus> status(std::uint64_t id) const;
  /// All known jobs (queued, running, retained finished), newest first.
  std::vector<JobStatus> list() const;

  std::size_t queueDepth() const;
  const Options& options() const noexcept { return options_; }

  /// Blocks until every admitted job has finished (test helper).
  void drain();

 private:
  struct Job {
    Job(std::uint64_t job_id, JobRequest job_request)
        : id(job_id), request(std::move(job_request)) {}

    std::uint64_t id = 0;
    JobRequest request;
    JobState state = JobState::kQueued;
    bool cache_hit = false;
    std::string result_json;
    std::string error;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point started;
    std::chrono::steady_clock::time_point finished;
  };

  /// Executes one request outside any lock; fills result/error/cache_hit.
  struct ExecOutcome {
    bool ok = false;
    bool cache_hit = false;
    std::string result_json;
    std::string error;
  };
  /// executeImpl + circuit-breaker outcome recording.
  /// Both consume request.table (moved into the search, not copied).
  ExecOutcome execute(JobRequest& request, std::uint64_t id);
  ExecOutcome executeImpl(JobRequest& request, std::uint64_t id);

  /// Shared admission tail of submit()/resubmit(); `privileged` skips
  /// the capacity and overload gates.
  util::Result<std::uint64_t> admit(JobRequest request, bool privileged);
  void drainOne();
  void finishJob(std::shared_ptr<Job> job, ExecOutcome outcome);
  JobStatus snapshotLocked(const Job& job) const;
  /// Submits `n` drainOne closures to the executing pool.  Must run
  /// under mutex_ with stopping_ false: holding the lock serializes
  /// dispatch against the destructor's stopping_ flip, so a closure is
  /// never pushed into a pool that is (or is about to be) torn down.
  void dispatchLocked(std::size_t n);
  obs::Labels labelsWith(const char* key, const char* value) const;

  Options options_;
  ResultCache* cache_;  ///< not owned; may be null

  /// Search workspaces retained across jobs.  Each execute() builds a
  /// fresh per-request RapMiner (the config is per-job), but the
  /// aggregation scratch is shape-keyed, not config-keyed, so leasing
  /// it from a manager-wide pool makes the steady-state localize path
  /// allocation-free even though the miner is ephemeral.
  core::WorkspacePool localize_workspaces_;

  mutable std::mutex mutex_;
  OverloadGuard overload_;  ///< guarded by mutex_ (admission path only)
  std::condition_variable idle_;
  bool paused_ = false;
  bool stopping_ = false;
  /// drainOne closures dispatched to the pool and not yet returned —
  /// the destructor's safe-teardown barrier on a shared pool.
  std::size_t tasks_outstanding_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  /// Queued jobs ordered (-priority, admission seq) so begin() is the
  /// next job to run.
  std::map<std::pair<std::int64_t, std::uint64_t>, std::shared_ptr<Job>>
      pending_;
  std::size_t active_ = 0;  ///< jobs currently executing
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> finished_order_;  ///< retention FIFO

  // Metrics (null when the obs gate is off at construction).
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* jobs_done_ = nullptr;
  obs::Counter* jobs_failed_ = nullptr;
  obs::Counter* admission_rejected_ = nullptr;
  obs::Counter* cache_hits_ = nullptr;
  obs::Counter* cache_misses_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* jobs_running_ = nullptr;
  obs::Histogram* job_seconds_ = nullptr;
  obs::Histogram* queue_delay_ = nullptr;  ///< rap_svc_queue_delay_seconds

  /// The pool jobs execute on (options_.shared_pool or pool_), set once
  /// at construction.  Searches fan out to its idle workers; it stays
  /// valid while the destructor joins pool_, and searches running then
  /// simply get no helpers.
  util::ThreadPool* executing_pool_ = nullptr;

  /// Last member: joins its workers first on destruction, while the
  /// members above are still alive for in-flight drainOne() calls.
  /// Null when options_.shared_pool supplies the workers.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace rap::svc
