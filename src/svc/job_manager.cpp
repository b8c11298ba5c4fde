#include "svc/job_manager.h"

#include <algorithm>
#include <utility>

#include "detect/detector.h"
#include "fault/fault.h"
#include "io/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/breaker.h"

namespace rap::svc {

namespace {

double secondsBetween(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

const char* jobStateName(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

obs::Labels JobManager::labelsWith(const char* key, const char* value) const {
  obs::Labels labels = options_.metric_labels;
  if (key != nullptr) labels.emplace_back(key, value);
  return labels;
}

JobManager::JobManager(Options options, ResultCache* cache)
    : options_(std::move(options)),
      cache_(cache),
      overload_(options_.overload) {
  if (options_.workers == 0) options_.workers = 1;
  if (obs::metricsEnabled()) {
    auto& reg = obs::defaultRegistry();
    const obs::Labels base = labelsWith(nullptr, nullptr);
    jobs_submitted_ = &reg.counter("rap_svc_jobs_submitted_total", base);
    jobs_done_ =
        &reg.counter("rap_svc_jobs_total", labelsWith("state", "done"));
    jobs_failed_ =
        &reg.counter("rap_svc_jobs_total", labelsWith("state", "failed"));
    admission_rejected_ =
        &reg.counter("rap_svc_admission_rejected_total", base);
    cache_hits_ = &reg.counter("rap_svc_cache_hits_total", base);
    cache_misses_ = &reg.counter("rap_svc_cache_misses_total", base);
    queue_depth_ = &reg.gauge("rap_svc_queue_depth", base);
    jobs_running_ = &reg.gauge("rap_svc_jobs_running", base);
    job_seconds_ = &reg.histogram(
        "rap_svc_job_seconds", obs::exponentialBuckets(0.001, 2.0, 16), base);
    queue_delay_ = &reg.histogram("rap_svc_queue_delay_seconds",
                                  obs::exponentialBuckets(0.001, 2.0, 16),
                                  base);
  }
  if (options_.shared_pool == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  }
  executing_pool_ =
      options_.shared_pool != nullptr ? options_.shared_pool : pool_.get();
}

JobManager::~JobManager() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // Owned pool: workers run every queued drainOne closure (each bounces
  // off stopping_) and join.
  pool_.reset();
  // Shared pool: the closures this manager dispatched still reference
  // `this` — wait until the last one has left the pool before the
  // members they touch are destroyed.
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return tasks_outstanding_ == 0 && active_ == 0; });
}

void JobManager::dispatchLocked(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ++tasks_outstanding_;
    executing_pool_->submit([this] { drainOne(); });
  }
}

util::Result<std::uint64_t> JobManager::submit(JobRequest request) {
  {
    const util::Status injected = RAP_FAULT_STATUS("svc.submit");
    if (!injected.isOk()) {
      if (admission_rejected_ != nullptr) admission_rejected_->increment();
      return injected;
    }
  }
  return admit(std::move(request), /*privileged=*/false);
}

util::Result<std::uint64_t> JobManager::resubmit(JobRequest request) {
  return admit(std::move(request), /*privileged=*/true);
}

util::Result<std::uint64_t> JobManager::admit(JobRequest request,
                                              bool privileged) {
  std::uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      return util::Status::failedPrecondition("job manager is shut down");
    }
    if (!privileged) {
      if (pending_.size() >= options_.queue_capacity) {
        if (admission_rejected_ != nullptr) admission_rejected_->increment();
        return util::Status::outOfRange("job queue full");
      }
      // CoDel-style delay shedding: the queue may have free slots, but
      // if the NEXT job to run has already waited past target for a
      // full interval, admitting more work only deepens the lie.
      if (overload_.enabled()) {
        const auto now = std::chrono::steady_clock::now();
        const double head_delay =
            pending_.empty()
                ? 0.0
                : secondsBetween(pending_.begin()->second->admitted, now);
        if (overload_.shouldShedAt(head_delay, now)) {
          if (admission_rejected_ != nullptr) {
            admission_rejected_->increment();
          }
          return util::Status::unavailable(
              "queue delay above target (overloaded)");
        }
      }
    }
    id = next_id_++;
    auto job = std::make_shared<Job>(id, std::move(request));
    job->admitted = std::chrono::steady_clock::now();
    pending_.emplace(
        std::make_pair(-static_cast<std::int64_t>(job->request.priority),
                       next_seq_++),
        job);
    jobs_.emplace(id, std::move(job));
    if (jobs_submitted_ != nullptr) jobs_submitted_->increment();
    if (queue_depth_ != nullptr) {
      queue_depth_->set(static_cast<double>(pending_.size()));
    }
    dispatchLocked(1);
  }
  obs::traceFlow('s', "svc/job", id);
  return id;
}

util::Result<std::string> JobManager::executeInline(JobRequest request) {
  const auto start = std::chrono::steady_clock::now();
  ExecOutcome outcome = execute(request, 0);
  if (job_seconds_ != nullptr) {
    job_seconds_->observe(
        secondsBetween(start, std::chrono::steady_clock::now()));
  }
  if (jobs_done_ != nullptr && outcome.ok) jobs_done_->increment();
  if (jobs_failed_ != nullptr && !outcome.ok) jobs_failed_->increment();
  if (!outcome.ok) return util::Status::internal(outcome.error);
  return std::move(outcome.result_json);
}

void JobManager::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobManager::resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = false;
  if (stopping_) return;
  // Re-dispatch one closure per pending job (bounded by the quota);
  // the paused-era dispatches already bounced and are gone.
  std::size_t n = pending_.size();
  if (options_.max_active != 0) {
    n = std::min(n, options_.max_active > active_
                        ? options_.max_active - active_
                        : std::size_t{0});
  }
  dispatchLocked(n);
}

bool JobManager::paused() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return paused_;
}

std::optional<JobStatus> JobManager::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshotLocked(*it->second);
}

std::vector<JobStatus> JobManager::list() const {
  std::vector<JobStatus> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) out.push_back(snapshotLocked(*job));
  }
  std::sort(out.begin(), out.end(),
            [](const JobStatus& a, const JobStatus& b) { return a.id > b.id; });
  return out;
}

std::size_t JobManager::queueDepth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.size();
}

void JobManager::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return pending_.empty() && active_ == 0; });
}

void JobManager::drainOne() {
  // Non-blocking by design: on a shared pool a parked closure would pin
  // a worker every other tenant needs.  Not runnable right now (paused,
  // quota-saturated, stopping, nothing pending) -> bounce; resume() and
  // finishJob() re-dispatch when the state changes.
  std::shared_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool runnable =
        !stopping_ && !paused_ && !pending_.empty() &&
        (options_.max_active == 0 || active_ < options_.max_active);
    if (!runnable) {
      --tasks_outstanding_;
      idle_.notify_all();
      return;
    }
    job = pending_.begin()->second;
    pending_.erase(pending_.begin());
    job->state = JobState::kRunning;
    job->started = std::chrono::steady_clock::now();
    ++active_;
    if (queue_delay_ != nullptr) {
      queue_delay_->observe(secondsBetween(job->admitted, job->started));
    }
    if (queue_depth_ != nullptr) {
      queue_depth_->set(static_cast<double>(pending_.size()));
    }
    if (jobs_running_ != nullptr) {
      jobs_running_->set(static_cast<double>(active_));
    }
  }
  ExecOutcome outcome = execute(job->request, job->id);
  finishJob(std::move(job), std::move(outcome));
  std::lock_guard<std::mutex> lock(mutex_);
  --tasks_outstanding_;
  idle_.notify_all();
}

void JobManager::finishJob(std::shared_ptr<Job> job, ExecOutcome outcome) {
  const std::uint64_t id = job->id;
  // The journal hook runs BEFORE the job turns terminal (and before any
  // manager lock — it takes its own mutex and fsyncs): the completion
  // marker must be durable by the time drain()/status() can observe the
  // terminal state, and a crash in between merely replays a finished
  // job into a cache hit.
  if (options_.on_terminal) {
    options_.on_terminal(id, job->request.journal_record, outcome.ok);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job->state = outcome.ok ? JobState::kDone : JobState::kFailed;
    job->cache_hit = outcome.cache_hit;
    job->result_json = std::move(outcome.result_json);
    job->error = std::move(outcome.error);
    job->finished = std::chrono::steady_clock::now();
    --active_;
    if (jobs_running_ != nullptr) {
      jobs_running_->set(static_cast<double>(active_));
    }
    if (job_seconds_ != nullptr) {
      job_seconds_->observe(secondsBetween(job->admitted, job->finished));
    }
    if (jobs_done_ != nullptr && outcome.ok) jobs_done_->increment();
    if (jobs_failed_ != nullptr && !outcome.ok) jobs_failed_->increment();
    finished_order_.push_back(id);
    while (finished_order_.size() > options_.max_finished_jobs) {
      jobs_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
    // A quota-bounced closure may have been the only one watching the
    // queue — hand the freed slot to the next pending job.
    if (!stopping_ && !paused_ && !pending_.empty() &&
        (options_.max_active == 0 || active_ < options_.max_active)) {
      dispatchLocked(1);
    }
  }
  obs::traceFlow('f', "svc/job", id);
  idle_.notify_all();
}

JobManager::ExecOutcome JobManager::execute(JobRequest& request,
                                            std::uint64_t id) {
  ExecOutcome outcome = executeImpl(request, id);
  if (options_.breaker != nullptr) {
    // Every execute outcome — sync or queued, cache hit or full search —
    // feeds the tenant's failure budget.
    if (outcome.ok) {
      options_.breaker->recordSuccess();
    } else {
      options_.breaker->recordFailure();
    }
  }
  return outcome;
}

JobManager::ExecOutcome JobManager::executeImpl(JobRequest& request,
                                                std::uint64_t id) {
  RAP_TRACE_SPAN("svc/execute", {{"job", id}, {"rows", request.table.size()}});
  if (id != 0) obs::traceFlow('t', "svc/job", id);
  ExecOutcome outcome;

  try {
    const util::Status injected = RAP_FAULT_STATUS("svc.execute");
    if (!injected.isOk()) {
      outcome.error = injected.message();
      return outcome;
    }
  } catch (const fault::InjectedFault& fault) {
    // Pool tasks must not throw; a kThrow fault becomes a failed job.
    outcome.error = fault.what();
    return outcome;
  }

  if (cache_ != nullptr && request.cache_key != 0) {
    if (!request.cache_checked) {
      if (auto hit = cache_->get(request.cache_key)) {
        if (cache_hits_ != nullptr) cache_hits_->increment();
        outcome.ok = true;
        outcome.cache_hit = true;
        outcome.result_json = std::move(*hit);
        return outcome;
      }
    }
    if (cache_misses_ != nullptr) cache_misses_->increment();
  }

  auto miner =
      core::RapMiner::Builder().config(request.miner).build();
  if (!miner.isOk()) {
    outcome.error = miner.status().toString();
    return outcome;
  }

  // A raw real/predict upload carries no verdicts; run the default
  // leaf-level detector so the pipeline is end-to-end, like csv_localize.
  // The table moves out of the request: a finished job keeps only its
  // result document, not the snapshot.
  dataset::LeafTable table = std::move(request.table);
  if (table.anomalousCount() == 0) {
    detect::RelativeDeviationDetector(request.detect_threshold).run(table);
  }

  // The search fans out to the executing pool's idle workers, if any —
  // the pool this job runs on when queued, or beside it when sync.
  const core::LocalizationResult result = miner.value().localize(
      table, request.k, executing_pool_, &localize_workspaces_);
  outcome.ok = true;
  outcome.result_json = io::resultToJson(table.schema(), result);
  if (cache_ != nullptr && request.cache_key != 0) {
    cache_->put(request.cache_key, outcome.result_json);
  }
  return outcome;
}

JobStatus JobManager::snapshotLocked(const Job& job) const {
  const auto now = std::chrono::steady_clock::now();
  JobStatus out;
  out.id = job.id;
  out.state = job.state;
  out.priority = job.request.priority;
  out.cache_hit = job.cache_hit;
  out.deadline_seconds = job.request.miner.search.deadline_seconds;
  switch (job.state) {
    case JobState::kQueued:
      out.queued_seconds = secondsBetween(job.admitted, now);
      break;
    case JobState::kRunning:
      out.queued_seconds = secondsBetween(job.admitted, job.started);
      out.run_seconds = secondsBetween(job.started, now);
      break;
    case JobState::kDone:
    case JobState::kFailed:
      out.queued_seconds = secondsBetween(job.admitted, job.started);
      out.run_seconds = secondsBetween(job.started, job.finished);
      break;
  }
  out.result_json = job.result_json;
  out.error = job.error;
  return out;
}

}  // namespace rap::svc
