#include "svc/router.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "io/csv.h"
#include "obs/build_info.h"
#include "stream/event.h"
#include "stream/queue.h"
#include "svc/tenant_config.h"
#include "util/json_writer.h"
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr char kTenantsPrefix[] = "/api/v1/tenants/";

/// One tenant's JSON section (shared by GET detail, the list, and
/// /statusz).
void writeTenant(util::JsonWriter& w, const DatasetCatalog::Tenant& tenant) {
  w.beginObject();
  w.field("name", tenant.spec.name);

  const dataset::Schema& schema = tenant.spec.schema;
  w.beginObject("schema");
  w.beginArray("attributes");
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    w.beginObject();
    w.field("name", schema.attribute(a).name());
    w.field("cardinality", schema.cardinality(a));
    w.endObject();
  }
  w.endArray();
  w.field("leaves", schema.leafCount());
  w.endObject();

  constexpr auto kG9 = util::NumberFormat::kG9;
  const LocalizeService::Options& options = tenant.service->options();
  w.beginObject("config");
  w.field("k", options.default_k);
  w.field("t_cp", tenant.spec.miner.cp.t_cp, kG9);
  w.field("t_conf", tenant.spec.miner.search.t_conf, kG9);
  w.field("detect_threshold", options.default_detect_threshold, kG9);
  w.field("sync_row_limit", options.sync_row_limit);
  w.endObject();

  w.beginObject("jobs");
  w.field("queue_depth", tenant.service->jobs().queueDepth());
  w.field("queue_capacity", options.jobs.queue_capacity);
  w.field("max_active", options.jobs.max_active);
  w.endObject();

  const ResultCache::CacheStats cache = tenant.service->cache().stats();
  w.beginObject("cache");
  w.field("size", tenant.service->cache().size());
  w.field("hits", cache.hits);
  w.field("misses", cache.misses);
  w.endObject();

  const CircuitBreaker& breaker = tenant.service->breaker();
  w.beginObject("breaker");
  w.field("enabled", breaker.enabled());
  w.field("state", breakerStateName(breaker.state()));
  w.field("consecutive_failures", breaker.consecutiveFailures());
  w.endObject();
  w.field("quarantined", tenant.quarantined());

  const auto engine = tenant.engine();
  w.field("streaming", engine != nullptr);
  if (engine != nullptr) {
    const stream::StreamStats stats = engine->stats();
    w.beginObject("stream");
    w.field("running", engine->running());
    w.field("ingested", stats.ingested);
    w.field("rejected", stats.rejected);
    w.field("windows_sealed", stats.windows_sealed);
    w.field("localizations", stats.localizations);
    w.field("queue_depth", stats.queue_depth);
    w.endObject();
  }
  w.endObject();
}

/// The reply to a PUT or DELETE: {"tenant":<name>,"status":<what>}.
obs::HttpResponse tenantStatusReply(int status, const std::string& name,
                                    const char* what) {
  util::JsonWriter w;
  w.beginObject();
  w.field("tenant", name);
  w.field("status", what);
  w.endObject();
  return obs::jsonResponse(status, std::move(w).str() + "\n");
}

/// Parses one ingest CSV row: ts,elem1,...,elemN,real,predict, each
/// field trimmed of surrounding whitespace.
util::Result<stream::StreamEvent> parseIngestRow(const dataset::Schema& schema,
                                                 io::CsvFields fields) {
  const std::size_t expected =
      static_cast<std::size_t>(schema.attributeCount()) + 3;
  if (fields.size() != expected) {
    return util::Status::invalidArgument(util::strFormat(
        "expected %zu fields (ts,attrs...,real,predict), got %zu", expected,
        fields.size()));
  }
  stream::StreamEvent event;
  const auto ts = util::parseInt(fields[0]);
  RAP_RETURN_IF_ERROR(ts.status());
  event.ts = ts.value();

  std::vector<dataset::ElemId> slots;
  slots.reserve(static_cast<std::size_t>(schema.attributeCount()));
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    const auto elem = schema.attribute(a).elementId(
        util::trim(fields[static_cast<std::size_t>(a) + 1]));
    RAP_RETURN_IF_ERROR(elem.status());
    slots.push_back(elem.value());
  }
  event.leaf = dataset::AttributeCombination(std::move(slots));

  const auto v = util::parseDouble(fields[expected - 2]);
  RAP_RETURN_IF_ERROR(v.status());
  const auto f = util::parseDouble(fields[expected - 1]);
  RAP_RETURN_IF_ERROR(f.status());
  event.v = v.value();
  event.f = f.value();
  return event;
}

}  // namespace

TenantRouter::TenantRouter(DatasetCatalog& catalog)
    : TenantRouter(catalog, Options{}) {}

TenantRouter::TenantRouter(DatasetCatalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {}

void TenantRouter::installEndpoints(obs::AdminServer& server) {
  server.handle("/api/v1/tenants",
                [this](const obs::HttpRequest& request) {
                  return handleTenantsList(request);
                });
  // One method-scoped prefix route per verb; the tenant name is parsed
  // from the path at request time, so PUT-created tenants are routable
  // without touching the (immutable) route table.
  for (const obs::HttpMethod method :
       {obs::HttpMethod::kGet, obs::HttpMethod::kPost, obs::HttpMethod::kPut,
        obs::HttpMethod::kDelete}) {
    server.handleMethod(method, kTenantsPrefix, /*prefix=*/true,
                        [this](const obs::HttpRequest& request) {
                          return route(request);
                        });
  }

  // Legacy single-tenant aliases: resolve "default" per request.
  server.handlePost("/api/v1/localize", [this](const obs::HttpRequest& r) {
    auto tenant = catalog_.find("default");
    if (tenant == nullptr) {
      return obs::errorResponse(404, "not_found", "no default tenant");
    }
    return tenant->service->handleLocalize(r);
  });
  server.handle("/api/v1/jobs", [this](const obs::HttpRequest& r) {
    auto tenant = catalog_.find("default");
    if (tenant == nullptr) {
      return obs::errorResponse(404, "not_found", "no default tenant");
    }
    return tenant->service->handleJobsList(r);
  });
  server.handlePrefix("/api/v1/jobs/", [this](const obs::HttpRequest& r) {
    auto tenant = catalog_.find("default");
    if (tenant == nullptr) {
      return obs::errorResponse(404, "not_found", "no default tenant");
    }
    return tenant->service->handleJobGet(r);
  });

  server.handle("/statusz", [this](const obs::HttpRequest& request) {
    return handleStatusz(request);
  });
}

obs::HttpResponse TenantRouter::route(const obs::HttpRequest& request) {
  // Fault point "svc.tenant": tenant resolution is the seam every
  // resource request crosses; kError/kDrop shed the request with a 503
  // (clients retry), kThrow propagates to the server's 500 path.
  if (const util::Status injected = RAP_FAULT_STATUS("svc.tenant");
      !injected.isOk()) {
    return obs::errorResponse(503, "tenant_unavailable", injected.message());
  }

  std::string rest = request.path.substr(sizeof(kTenantsPrefix) - 1);
  std::string name;
  std::string sub;
  const std::size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    name = std::move(rest);
  } else {
    name = rest.substr(0, slash);
    sub = rest.substr(slash + 1);
  }
  if (const util::Status valid = validateTenantName(name); !valid.isOk()) {
    return obs::errorResponse(400, "bad_parameter", valid.message());
  }

  if (sub.empty()) {
    if (request.method == "PUT") return handleTenantPut(name, request);
    if (request.method == "DELETE") return handleTenantDelete(name);
    if (request.method == "GET" || request.method == "HEAD") {
      auto tenant = catalog_.find(name);
      if (tenant == nullptr) {
        return obs::errorResponse(404, "not_found",
                                  "no such tenant '" + name + "'");
      }
      return handleTenantGet(*tenant);
    }
    return obs::errorResponse(405, "method_not_allowed",
                              "unsupported method on tenant resource");
  }

  // Sub-resources require a live tenant; holding the shared_ptr keeps
  // it alive across a concurrent DELETE.
  auto tenant = catalog_.find(name);
  if (tenant == nullptr) {
    return obs::errorResponse(404, "not_found",
                              "no such tenant '" + name + "'");
  }
  if (tenant->quarantined()) {
    // The supervisor gave up restarting this tenant's engine; only
    // delete + re-put revives it (docs/robustness.md).
    return obs::errorResponse(503, "tenant_unavailable",
                              "tenant '" + name +
                                  "' is quarantined (engine restarts "
                                  "exhausted)");
  }

  if (sub == "localize") {
    if (request.method != "POST") {
      return obs::errorResponse(405, "method_not_allowed",
                                "localize requires POST");
    }
    return tenant->service->handleLocalize(request);
  }
  if (sub == "ingest") {
    if (request.method != "POST") {
      return obs::errorResponse(405, "method_not_allowed",
                                "ingest requires POST");
    }
    return handleIngest(*tenant, request);
  }
  if (sub == "jobs") {
    if (request.method != "GET" && request.method != "HEAD") {
      return obs::errorResponse(405, "method_not_allowed",
                                "jobs listing requires GET");
    }
    return tenant->service->handleJobsList(request);
  }
  if (util::startsWith(sub, "jobs/")) {
    if (request.method != "GET" && request.method != "HEAD") {
      return obs::errorResponse(405, "method_not_allowed",
                                "job detail requires GET");
    }
    // Rebase onto the service's own prefix so the default tenant (whose
    // canonical job URLs are the legacy un-prefixed ones) parses too.
    obs::HttpRequest rebased = request;
    rebased.path = tenant->service->options().jobs_path_prefix +
                   sub.substr(sizeof("jobs/") - 1);
    return tenant->service->handleJobGet(rebased);
  }
  return obs::errorResponse(404, "not_found",
                            "unknown tenant resource '" + sub + "'");
}

obs::HttpResponse TenantRouter::handleTenantsList(
    const obs::HttpRequest& request) {
  (void)request;
  util::JsonWriter w;
  w.beginObject();
  w.beginArray("tenants");
  for (const auto& tenant : catalog_.list()) {
    w.beginObject();
    w.field("name", tenant->spec.name);
    w.field("streaming", tenant->engine() != nullptr);
    w.field("queue_depth", tenant->service->jobs().queueDepth());
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

obs::HttpResponse TenantRouter::handleTenantGet(
    const DatasetCatalog::Tenant& tenant) {
  util::JsonWriter w;
  writeTenant(w, tenant);
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

obs::HttpResponse TenantRouter::handleTenantPut(
    const std::string& name, const obs::HttpRequest& request) {
  const auto doc = JsonValue::parse(request.body);
  if (!doc.isOk()) {
    return obs::errorResponse(400, "bad_request", doc.status().message());
  }
  auto spec = parseTenantSpec(*doc, name, options_.schema_base_dir);
  if (!spec.isOk()) {
    return obs::errorResponse(400, "bad_parameter", spec.status().message());
  }
  const util::Status put = catalog_.put(std::move(spec.value()));
  if (!put.isOk()) {
    if (put.code() == util::StatusCode::kFailedPrecondition) {
      return obs::errorResponse(409, "already_exists", put.message());
    }
    return obs::errorResponse(400, "bad_parameter", put.message());
  }
  return tenantStatusReply(201, name, "created");
}

obs::HttpResponse TenantRouter::handleTenantDelete(const std::string& name) {
  if (name == "default") {
    // The legacy aliases route through it; a deployment that wants it
    // gone should not be running the compatibility surface at all.
    return obs::errorResponse(403, "protected",
                              "the default tenant cannot be deleted");
  }
  auto removed = catalog_.remove(name);
  if (!removed.isOk()) {
    return obs::errorResponse(404, "not_found", removed.status().message());
  }
  // Drain before answering: stop the engine (seals + localizes whatever
  // is buffered), then destroy the service, whose JobManager runs down
  // in-flight jobs.  A 200 means the tenant is GONE, not going.
  if (auto engine = removed.value()->engine()) engine->stop();
  removed.value().reset();
  return tenantStatusReply(200, name, "deleted");
}

obs::HttpResponse TenantRouter::handleIngest(DatasetCatalog::Tenant& tenant,
                                             const obs::HttpRequest& request) {
  const auto engine = tenant.engine();
  if (engine == nullptr) {
    return obs::errorResponse(409, "not_streaming",
                              "tenant '" + tenant.spec.name +
                                  "' has no stream engine (set "
                                  "\"streaming\" in its spec)");
  }
  if (request.body.empty()) {
    return obs::errorResponse(400, "bad_request", "empty ingest body");
  }

  // Parse the whole batch before touching the engine: a malformed row is
  // a 400 with its line number and NOTHING ingested, so a client can fix
  // and resubmit without double-counting the good rows.
  std::vector<stream::StreamEvent> events;
  util::Status row_error;
  io::CsvStreamParser parser;
  const io::CsvRowCallback decode = [&](io::CsvFields fields) {
    if (!row_error.isOk()) return;
    const std::uint64_t row = parser.row();
    if (fields.size() == 1 && util::trim(fields[0]).empty()) return;  // blank
    if (row == 1 && fields.size() > 1 && util::trim(fields[0]) == "ts") {
      return;  // header
    }
    auto event = parseIngestRow(tenant.spec.schema, fields);
    if (!event.isOk()) {
      row_error = util::Status::invalidArgument(
          util::strFormat("row %llu: ", static_cast<unsigned long long>(row)) +
          event.status().message());
      return;
    }
    events.push_back(std::move(event.value()));
  };
  util::Status parsed = parser.feed(request.body, decode);
  if (parsed.isOk()) parsed = parser.finish(decode);
  if (parsed.isOk()) parsed = row_error;
  if (!parsed.isOk()) {
    return obs::errorResponse(400, "bad_request", parsed.message());
  }
  if (events.empty()) {
    return obs::errorResponse(400, "bad_request", "no data rows in body");
  }

  const stream::PushResult result = engine->ingestBatch(std::move(events));
  util::JsonWriter w;
  w.beginObject();
  w.field("accepted", result.accepted);
  w.field("dropped_oldest", result.dropped_oldest);
  w.field("dropped_newest", result.dropped_newest);
  if (result.max_accepted_ts != stream::PushResult::kNoTimestamp) {
    w.field("max_accepted_ts", result.max_accepted_ts);
  }
  w.endObject();
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

obs::HttpResponse TenantRouter::handleStatusz(
    const obs::HttpRequest& request) {
  (void)request;
  util::JsonWriter w;
  w.beginObject();
  w.key("build");
  w.embed(obs::buildInfoJson());
  w.field("tenant_count", catalog_.size());
  w.beginArray("tenants");
  for (const auto& tenant : catalog_.list()) writeTenant(w, *tenant);
  w.endArray();
  w.endObject();
  return obs::jsonResponse(200, std::move(w).str() + "\n");
}

}  // namespace rap::svc
