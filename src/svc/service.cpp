#include "svc/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "obs/metrics.h"
#include "svc/params.h"
#include "svc/snapshot.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rap::svc {

namespace {

/// The parameter table for POST .../localize — the single source of
/// truth the shared parser enforces (unknown key / bad number /
/// out-of-range all become uniform 400 diagnostics).
const std::vector<ParamSpec>& localizeParamSpecs() {
  static const std::vector<ParamSpec> kSpecs = {
      {"k", ParamSpec::Kind::kInt, -2e9, 2e9, {}},
      {"priority", ParamSpec::Kind::kInt, -2e9, 2e9, {}},
      {"t_cp", ParamSpec::Kind::kDouble, -1e300, 1e300, {}},
      {"t_conf", ParamSpec::Kind::kDouble, -1e300, 1e300, {}},
      {"deadline", ParamSpec::Kind::kDouble, -1e300, 1e300, {}},
      {"detect_threshold", ParamSpec::Kind::kDouble, 0.0, 1e9, {}},
      {"mode", ParamSpec::Kind::kEnum, 0.0, 0.0, {"sync", "async", "auto"}},
  };
  return kSpecs;
}

/// The job fields shared by the list and detail documents (no result).
void writeJobFields(util::JsonWriter& w, const JobStatus& job) {
  constexpr auto kFixed6 = util::NumberFormat::kFixed6;
  w.field("job_id", job.id);
  w.field("state", jobStateName(job.state));
  w.field("priority", job.priority);
  w.field("cache_hit", job.cache_hit);
  w.field("deadline_seconds", job.deadline_seconds, kFixed6);
  w.field("queued_seconds", job.queued_seconds, kFixed6);
  w.field("run_seconds", job.run_seconds, kFixed6);
}

}  // namespace

LocalizeService::LocalizeService(dataset::Schema schema,
                                 core::RapMinerConfig base_config)
    : LocalizeService(std::move(schema), base_config, Options{}) {}

LocalizeService::LocalizeService(dataset::Schema schema,
                                 core::RapMinerConfig base_config,
                                 Options options)
    : schema_(std::move(schema)),
      base_config_(base_config),
      options_(std::move(options)) {
  if (options_.jobs.metric_labels.empty() && !options_.tenant.empty()) {
    options_.jobs.metric_labels = {{"tenant", options_.tenant}};
  }
  cache_ = std::make_unique<ResultCache>(options_.cache);
  if (options_.breaker.metric_labels.empty()) {
    options_.breaker.metric_labels = options_.jobs.metric_labels;
  }
  breaker_ = std::make_unique<CircuitBreaker>(options_.breaker);
  // A disabled breaker stays entirely off the manager's execute path.
  options_.jobs.breaker = breaker_->enabled() ? breaker_.get() : nullptr;
  if (options_.journal != nullptr) {
    JobJournal* journal = options_.journal;
    options_.jobs.on_terminal = [journal](std::uint64_t /*id*/,
                                          std::uint64_t record, bool ok) {
      if (record != 0) journal->complete(record, ok ? "done" : "failed");
    };
  }
  jobs_ = std::make_unique<JobManager>(options_.jobs, cache_.get());
  // Deterministic per-instance jitter stream; only the [base, 2*base)
  // envelope matters, not the sequence.
  jitter_state_.store(contentHash(options_.tenant) | 1u);
  if (obs::metricsEnabled()) {
    // Same series the JobManager publishes to — the pre-parse fast path
    // below must count as a hit just like one inside a worker.
    cache_hits_ = &obs::defaultRegistry().counter("rap_svc_cache_hits_total",
                                                  options_.jobs.metric_labels);
    degraded_served_ = &obs::defaultRegistry().counter(
        "rap_svc_degraded_served_total", options_.jobs.metric_labels);
    // 10 us to ~6 s in steps of 1.5x: fine enough that a bucket-median
    // reads a millisecond-scale decode to within a quarter.
    const auto stage = [this](const char* name) {
      obs::Labels labels = options_.jobs.metric_labels;
      labels.emplace_back("stage", name);
      return &obs::defaultRegistry().histogram(
          "rap_svc_stage_seconds", obs::exponentialBuckets(1e-5, 1.5, 34),
          labels);
    };
    stage_hash_ = stage("hash");
    stage_parse_ = stage("parse");
  }
}

util::Result<LocalizeService::RequestKnobs> LocalizeService::resolveKnobs(
    const obs::HttpRequest& request) const {
  const auto params = parseParams(request.query, localizeParamSpecs());
  RAP_RETURN_IF_ERROR(params.status());

  RequestKnobs knobs;
  knobs.miner = base_config_;
  knobs.k = static_cast<std::int32_t>(
      params->intOr("k", options_.default_k));
  knobs.priority = static_cast<std::int32_t>(params->intOr("priority", 0));
  knobs.miner.cp.t_cp = params->doubleOr("t_cp", knobs.miner.cp.t_cp);
  knobs.miner.search.t_conf =
      params->doubleOr("t_conf", knobs.miner.search.t_conf);
  double deadline =
      params->doubleOr("deadline", knobs.miner.search.deadline_seconds);
  if (!std::isfinite(deadline) || deadline < 0.0) {
    return util::Status::invalidArgument(
        "deadline must be a finite, non-negative number of seconds");
  }
  if (options_.max_deadline_seconds > 0.0 &&
      (deadline == 0.0 || deadline > options_.max_deadline_seconds)) {
    // The tenant budget always applies: deadline=0 ("unbounded") clamps
    // too, so no request outlives max_deadline_seconds.
    deadline = options_.max_deadline_seconds;
  }
  knobs.miner.search.deadline_seconds = deadline;
  knobs.detect_threshold =
      params->doubleOr("detect_threshold", options_.default_detect_threshold);
  knobs.mode = params->stringOr("mode", std::string());
  if (knobs.mode == "auto") knobs.mode.clear();

  // One validation gate for everything user-supplied: a bad override is
  // a 400 here, never a RAP_CHECK abort in a worker.
  RAP_RETURN_IF_ERROR(
      core::RapMiner::Builder().config(knobs.miner).validate());
  return knobs;
}

std::uint64_t LocalizeService::requestKey(const std::string& body,
                                          const RequestKnobs& knobs) const {
  // Raw body bytes first — an idempotent resubmission is recognized
  // without parsing — then every override that changes the result.
  // (priority only changes scheduling, so it stays out of the key.)
  std::uint64_t h = contentHash(body);
  h = hashMix(h, static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(knobs.k)));
  h = hashMix(h, std::bit_cast<std::uint64_t>(knobs.miner.cp.t_cp));
  h = hashMix(h, std::bit_cast<std::uint64_t>(knobs.miner.search.t_conf));
  h = hashMix(h,
              std::bit_cast<std::uint64_t>(knobs.miner.search.deadline_seconds));
  h = hashMix(h, std::bit_cast<std::uint64_t>(knobs.detect_threshold));
  // Key 0 means "uncached" to the JobManager; remap the unlucky hash.
  return h == 0 ? 1 : h;
}

double LocalizeService::retryAfterJittered() {
  const double base = std::max(1.0, options_.jobs.retry_after_seconds);
  std::uint64_t s = jitter_state_.fetch_add(1, std::memory_order_relaxed);
  const double u =
      static_cast<double>(util::splitmix64(s) >> 11) * 0x1.0p-53;  // [0,1)
  return base * (1.0 + u);
}

obs::HttpResponse LocalizeService::retryableError(int status, const char* code,
                                                  const std::string& message) {
  const double retry = retryAfterJittered();
  obs::HttpResponse response = obs::jsonResponse(
      status, obs::errorEnvelope(status, code, message, retry));
  response.headers.emplace_back(
      "Retry-After", util::formatNumber(retry, util::NumberFormat::kFixed0));
  return response;
}

obs::HttpResponse LocalizeService::handleLocalize(
    const obs::HttpRequest& request) {
  auto knobs = resolveKnobs(request);
  if (!knobs.isOk()) {
    return obs::errorResponse(400, "bad_parameter", knobs.status().message());
  }
  util::WallTimer hash_timer;
  const std::uint64_t key = requestKey(request.body, *knobs);
  if (stage_hash_ != nullptr) {
    stage_hash_->observe(hash_timer.elapsedSeconds());
  }

  // Circuit-breaker gate, ahead of even the cache fast path: while the
  // tenant's breaker is open the service answers from the result cache
  // (stale entries included — a TTL-expired localization beats a 503
  // during an incident) with X-Rap-Degraded, or sheds with 503
  // tenant_unavailable and a jittered Retry-After.  allow() admits the
  // half-open probes that eventually close the breaker.
  if (breaker_->enabled() && !breaker_->allow()) {
    if (auto stale = cache_->peekStale(key)) {
      if (degraded_served_ != nullptr) degraded_served_->increment();
      obs::HttpResponse response = obs::jsonResponse(200, std::move(*stale));
      response.headers.emplace_back("X-Rap-Cache", "hit");
      response.headers.emplace_back("X-Rap-Degraded", "stale");
      return response;
    }
    return retryableError(503, "tenant_unavailable",
                          "tenant circuit breaker is open");
  }

  // Pre-parse fast path: an identical resubmission (unless the caller
  // insists on a job record with mode=async) skips decoding entirely and
  // returns the stored document bit-identical.
  if (knobs->mode != "async") {
    if (auto hit = cache_->get(key)) {
      if (cache_hits_ != nullptr) cache_hits_->increment();
      obs::HttpResponse response = obs::jsonResponse(200, std::move(*hit));
      response.headers.emplace_back("X-Rap-Cache", "hit");
      return response;
    }
  }

  const std::string* content_type = request.header("content-type");
  const bool is_json = content_type != nullptr &&
                       content_type->find("json") != std::string::npos;
  util::WallTimer parse_timer;
  auto table = is_json ? parseJsonSnapshot(schema_, request.body)
                       : parseCsvSnapshot(schema_, request.body);
  if (stage_parse_ != nullptr) {
    stage_parse_->observe(parse_timer.elapsedSeconds());
  }
  if (!table.isOk()) {
    return obs::errorResponse(400, "bad_snapshot", table.status().message());
  }

  const bool sync =
      knobs->mode == "sync" ||
      (knobs->mode.empty() && table->size() <= options_.sync_row_limit);

  JobRequest job(std::move(*table));
  job.miner = knobs->miner;
  job.k = knobs->k;
  job.detect_threshold = knobs->detect_threshold;
  job.priority = knobs->priority;
  job.cache_key = key;
  job.cache_checked = knobs->mode != "async";  // the fast path above missed

  if (sync) {
    auto result = jobs_->executeInline(std::move(job));
    if (!result.isOk()) {
      return obs::errorResponse(500, "internal", result.status().message());
    }
    obs::HttpResponse response = obs::jsonResponse(200, std::move(*result));
    response.headers.emplace_back("X-Rap-Cache", "miss");
    return response;
  }

  // Durability before acknowledgement: the A record is appended (and
  // fsync'd) BEFORE admission, so every 202 this handler returns
  // survives kill -9.  An append failure is honest backpressure.
  if (options_.journal != nullptr) {
    JobJournal::Record record;
    record.tenant = options_.tenant;
    record.priority = knobs->priority;
    record.content_type = is_json ? "json" : "csv";
    record.query = request.query;
    record.body = request.body;
    auto record_id = options_.journal->append(std::move(record));
    if (!record_id.isOk()) {
      return retryableError(503, "journal_unavailable",
                            record_id.status().message());
    }
    job.journal_record = *record_id;
  }
  const std::uint64_t journal_record = job.journal_record;

  auto id = jobs_->submit(std::move(job));
  if (!id.isOk()) {
    if (journal_record != 0) {
      options_.journal->complete(journal_record, "shed");
    }
    switch (id.status().code()) {
      case util::StatusCode::kOutOfRange:
        return retryableError(429, "queue_full", id.status().message());
      case util::StatusCode::kUnavailable:
        return retryableError(429, "overloaded", id.status().message());
      case util::StatusCode::kFailedPrecondition:
        return obs::errorResponse(503, "shutting_down",
                                  id.status().message());
      default:
        return obs::errorResponse(500, "internal", id.status().message());
    }
  }
  util::JsonWriter w;
  w.beginObject();
  w.field("job_id", *id);
  w.field("status_url", options_.jobs_path_prefix + std::to_string(*id));
  w.endObject();
  return obs::jsonResponse(202, std::move(w).str() + "\n");
}

util::Result<std::uint64_t> LocalizeService::replayJob(
    const JobJournal::Record& record) {
  // Rebuild the admission exactly as the HTTP layer saw it, then run
  // the same decode pipeline — a replayed job carries the same cache
  // key as the original, so one that completed (C record lost to the
  // crash) re-renders bit-identical from the cache without a search.
  obs::HttpRequest request;
  request.method = "POST";
  request.path = "/api/v1/localize";
  request.query = record.query;
  request.body = record.body;
  request.headers.emplace_back(
      "content-type",
      record.content_type == "json" ? "application/json" : "text/csv");

  auto knobs = resolveKnobs(request);
  RAP_RETURN_IF_ERROR(knobs.status());
  const std::uint64_t key = requestKey(record.body, *knobs);
  auto table = record.content_type == "json"
                   ? parseJsonSnapshot(schema_, record.body)
                   : parseCsvSnapshot(schema_, record.body);
  RAP_RETURN_IF_ERROR(table.status());

  JobRequest job(std::move(*table));
  job.miner = knobs->miner;
  job.k = knobs->k;
  job.detect_threshold = knobs->detect_threshold;
  job.priority = knobs->priority;
  job.cache_key = key;
  job.journal_record = record.id;
  return jobs_->resubmit(std::move(job));
}

obs::HttpResponse LocalizeService::handleJobGet(
    const obs::HttpRequest& request) {
  const std::size_t prefix_len = options_.jobs_path_prefix.size();
  const std::string suffix = request.path.size() > prefix_len
                                 ? request.path.substr(prefix_len)
                                 : std::string();
  if (suffix.empty() ||
      suffix.find_first_not_of("0123456789") != std::string::npos) {
    return obs::errorResponse(400, "bad_parameter", "bad job id");
  }
  const std::uint64_t id = std::strtoull(suffix.c_str(), nullptr, 10);
  const auto status = jobs_->status(id);
  if (!status.has_value()) {
    return obs::errorResponse(404, "not_found", "no such job");
  }

  util::JsonWriter w;
  w.beginObject();
  writeJobFields(w, *status);
  if (status->state == JobState::kDone) {
    w.key("result");
    w.embed(status->result_json);
  } else if (status->state == JobState::kFailed) {
    w.field("error", status->error);
  }
  w.endObject();
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

obs::HttpResponse LocalizeService::handleJobsList(
    const obs::HttpRequest& request) {
  static const std::vector<ParamSpec> kSpecs = {
      {"limit", ParamSpec::Kind::kInt, 0.0, 9e18, {}},
  };
  const auto params = parseParams(request.query, kSpecs);
  if (!params.isOk()) {
    return obs::errorResponse(400, "bad_parameter",
                              params.status().message());
  }
  const auto limit = static_cast<std::size_t>(
      params->intOr("limit", std::numeric_limits<std::int64_t>::max()));
  util::JsonWriter w;
  w.beginObject();
  w.beginArray("jobs");
  std::size_t emitted = 0;
  for (const JobStatus& job : jobs_->list()) {
    if (emitted++ == limit) break;
    w.beginObject();
    writeJobFields(w, job);
    w.endObject();
  }
  w.endArray();
  w.field("queue_depth", jobs_->queueDepth());
  w.field("paused", jobs_->paused());
  w.endObject();
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

}  // namespace rap::svc
