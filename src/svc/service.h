// LocalizeService (src/svc) — the HTTP face of the localization
// pipeline: request decoding, per-request config overrides, sync/async
// mode selection, and the JSON job API, wired onto an obs::AdminServer.
//
// Endpoints (docs/service.md has the full contract):
//
//   POST /api/v1/localize[?k=&t_cp=&t_conf=&deadline=&detect_threshold=
//                          &mode=&priority=]
//     Body: a leaf-table snapshot, CSV (default) or JSON
//     (Content-Type: application/json).  Small snapshots (or
//     mode=sync) run on the worker serving the request -> 200 with the
//     localization result document; larger ones (or mode=async) are
//     admitted to the JobManager -> 202 {"job_id", "status_url"};
//     a full queue -> 429 with Retry-After.
//
//   GET /api/v1/jobs            all known jobs + queue state
//   GET /api/v1/jobs/<id>       one job, result document inlined when done
//
// Caching: the cache key is hashed over the RAW body bytes plus the
// effective overrides, so an idempotent resubmission is recognized
// before any parsing happens; cache state is reported in the
// X-Rap-Cache response header (hit|miss), never in the body — cached
// replies stay bit-identical to the original.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/rapminer.h"
#include "dataset/schema.h"
#include "obs/admin_server.h"
#include "svc/breaker.h"
#include "svc/job_journal.h"
#include "svc/job_manager.h"
#include "svc/result_cache.h"

namespace rap::svc {

class LocalizeService {
 public:
  struct Options {
    /// Top-k patterns returned when the request does not say.
    std::int32_t default_k = 5;
    /// Relative-deviation threshold for unlabeled snapshots.
    double default_detect_threshold = 0.095;
    /// Auto mode: snapshots with at most this many rows run
    /// synchronously; larger ones become queued jobs.
    std::size_t sync_row_limit = 4096;
    /// Tenant this service instance serves.  Stamped as the
    /// {tenant="..."} label on every rap_svc_* series (unless
    /// jobs.metric_labels is set explicitly) — the single-tenant daemon
    /// is simply the catalog's "default" tenant.
    std::string tenant = "default";
    /// Path prefix job detail URLs live under; the catalog rebases it
    /// to "/api/v1/tenants/<name>/jobs/" per tenant.  Used both to
    /// render status_url and to parse GET <prefix><id>.
    std::string jobs_path_prefix = "/api/v1/jobs/";
    /// Upper bound on the per-request `deadline` override; 0 means no
    /// cap.  When set, every request (including deadline=0 "no
    /// deadline") is clamped to it — the tenant's search budget always
    /// applies.  Negative or non-finite deadlines are a 400 regardless.
    double max_deadline_seconds = 0.0;
    /// Per-tenant circuit breaker (svc/breaker.h); failure_threshold 0
    /// (the default) disables it and keeps the fast path breaker-free.
    CircuitBreaker::Options breaker;
    /// Durable job journal (svc/job_journal.h); not owned, may be null
    /// (async admissions are then memory-only, as before).  Shared by
    /// every tenant of a catalog.
    JobJournal* journal = nullptr;
    JobManager::Options jobs;
    ResultCache::Options cache;
  };

  /// Default options overload: a `= {}` default argument would need the
  /// nested struct's member initializers before the enclosing class is
  /// complete (same shape as obs::AdminServer).
  LocalizeService(dataset::Schema schema, core::RapMinerConfig base_config);
  LocalizeService(dataset::Schema schema, core::RapMinerConfig base_config,
                  Options options);

  LocalizeService(const LocalizeService&) = delete;
  LocalizeService& operator=(const LocalizeService&) = delete;

  // Direct handler access (tests drive these without sockets).
  obs::HttpResponse handleLocalize(const obs::HttpRequest& request);
  obs::HttpResponse handleJobGet(const obs::HttpRequest& request);
  obs::HttpResponse handleJobsList(const obs::HttpRequest& request);

  /// Re-derives and resubmits one journaled admission through the
  /// admission-free replay path (svc/job_journal.h); kInvalidArgument
  /// when the recorded request no longer parses under the current spec.
  util::Result<std::uint64_t> replayJob(const JobJournal::Record& record);

  JobManager& jobs() noexcept { return *jobs_; }
  ResultCache& cache() noexcept { return *cache_; }
  CircuitBreaker& breaker() noexcept { return *breaker_; }
  const dataset::Schema& schema() const noexcept { return schema_; }
  const Options& options() const noexcept { return options_; }

 private:
  /// Effective per-request knobs after query-string overrides.
  struct RequestKnobs {
    core::RapMinerConfig miner;
    std::int32_t k = 5;
    double detect_threshold = 0.095;
    std::int32_t priority = 0;
    std::string mode;  ///< "", "sync" or "async"
  };

  /// Applies query overrides onto the base config; kInvalidArgument on
  /// a malformed or out-of-range value (-> 400).
  util::Result<RequestKnobs> resolveKnobs(
      const obs::HttpRequest& request) const;

  /// Content hash of (raw body bytes, effective overrides).
  std::uint64_t requestKey(const std::string& body,
                           const RequestKnobs& knobs) const;

  /// Retry-After hint in seconds (sent rounded to whole seconds),
  /// jittered uniformly over [base, 2*base) so a synchronized client
  /// fleet desynchronizes instead of retrying in lockstep
  /// (base = jobs.retry_after_seconds, floored at 1s).
  double retryAfterJittered();
  /// 429/503 envelope with the jittered Retry-After header +
  /// retry_after_seconds field.
  obs::HttpResponse retryableError(int status, const char* code,
                                   const std::string& message);

  dataset::Schema schema_;
  core::RapMinerConfig base_config_;
  Options options_;
  std::unique_ptr<ResultCache> cache_;
  /// Declared before jobs_: the manager holds a raw pointer to it.
  std::unique_ptr<CircuitBreaker> breaker_;
  std::unique_ptr<JobManager> jobs_;
  std::atomic<std::uint64_t> jitter_state_;
  obs::Counter* cache_hits_ = nullptr;  ///< shared rap_svc_cache_hits_total
  obs::Counter* degraded_served_ = nullptr;
  /// rap_svc_stage_seconds{stage="hash"|"parse"}: handleLocalize's
  /// request-key hash (every request) and snapshot decode (misses).
  obs::Histogram* stage_hash_ = nullptr;
  obs::Histogram* stage_parse_ = nullptr;
};

}  // namespace rap::svc
