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
#include "util/strings.h"

namespace rap::svc {

namespace {

constexpr char kTenantsPrefix[] = "/api/v1/tenants/";

obs::HttpResponse jsonResponse(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json; charset=utf-8";
  response.body = std::move(body);
  return response;
}

/// One tenant's JSON section (shared by GET detail, the list, and
/// /statusz).  Tenant names are [A-Za-z0-9_-], so they embed verbatim.
std::string tenantJson(const DatasetCatalog::Tenant& tenant) {
  std::string out = "{";
  out += "\"name\":\"" + tenant.spec.name + "\",";

  const dataset::Schema& schema = tenant.spec.schema;
  out += "\"schema\":{\"attributes\":[";
  for (dataset::AttrId a = 0; a < schema.attributeCount(); ++a) {
    if (a > 0) out += ",";
    out += util::strFormat("{\"name\":\"%s\",\"cardinality\":%d}",
                           schema.attribute(a).name().c_str(),
                           schema.cardinality(a));
  }
  out += util::strFormat("],\"leaves\":%llu},",
                         static_cast<unsigned long long>(schema.leafCount()));

  const LocalizeService::Options& options = tenant.service->options();
  out += util::strFormat(
      "\"config\":{\"k\":%d,\"t_cp\":%.9g,\"t_conf\":%.9g,"
      "\"detect_threshold\":%.9g,\"sync_row_limit\":%llu},",
      options.default_k, tenant.spec.miner.cp.t_cp,
      tenant.spec.miner.search.t_conf, options.default_detect_threshold,
      static_cast<unsigned long long>(options.sync_row_limit));

  out += util::strFormat(
      "\"jobs\":{\"queue_depth\":%llu,\"queue_capacity\":%llu,"
      "\"max_active\":%llu},",
      static_cast<unsigned long long>(tenant.service->jobs().queueDepth()),
      static_cast<unsigned long long>(options.jobs.queue_capacity),
      static_cast<unsigned long long>(options.jobs.max_active));

  const ResultCache::CacheStats cache = tenant.service->cache().stats();
  out += util::strFormat(
      "\"cache\":{\"size\":%llu,\"hits\":%llu,\"misses\":%llu},",
      static_cast<unsigned long long>(tenant.service->cache().size()),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses));

  const CircuitBreaker& breaker = tenant.service->breaker();
  out += util::strFormat(
      "\"breaker\":{\"enabled\":%s,\"state\":\"%s\","
      "\"consecutive_failures\":%llu},",
      breaker.enabled() ? "true" : "false",
      breakerStateName(breaker.state()),
      static_cast<unsigned long long>(breaker.consecutiveFailures()));
  out += util::strFormat("\"quarantined\":%s,",
                         tenant.quarantined() ? "true" : "false");

  const auto engine = tenant.engine();
  out += util::strFormat("\"streaming\":%s",
                         engine != nullptr ? "true" : "false");
  if (engine != nullptr) {
    const stream::StreamStats stats = engine->stats();
    out += util::strFormat(
        ",\"stream\":{\"running\":%s,\"ingested\":%llu,\"rejected\":%llu,"
        "\"windows_sealed\":%llu,\"localizations\":%llu,"
        "\"queue_depth\":%lld}",
        engine->running() ? "true" : "false",
        static_cast<unsigned long long>(stats.ingested),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.windows_sealed),
        static_cast<unsigned long long>(stats.localizations),
        static_cast<long long>(stats.queue_depth));
  }
  out += "}";
  return out;
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
  std::string body = "{\"tenants\":[";
  bool first = true;
  for (const auto& tenant : catalog_.list()) {
    if (!first) body += ",";
    first = false;
    body += util::strFormat(
        "{\"name\":\"%s\",\"streaming\":%s,\"queue_depth\":%llu}",
        tenant->spec.name.c_str(),
        tenant->engine() != nullptr ? "true" : "false",
        static_cast<unsigned long long>(tenant->service->jobs().queueDepth()));
  }
  body += "]}\n";
  return jsonResponse(200, std::move(body));
}

obs::HttpResponse TenantRouter::handleTenantGet(
    const DatasetCatalog::Tenant& tenant) {
  return jsonResponse(200, tenantJson(tenant) + "\n");
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
  return jsonResponse(
      201, "{\"tenant\":\"" + name + "\",\"status\":\"created\"}\n");
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
  return jsonResponse(
      200, "{\"tenant\":\"" + name + "\",\"status\":\"deleted\"}\n");
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
  std::string body = util::strFormat(
      "{\"accepted\":%llu,\"dropped_oldest\":%llu,\"dropped_newest\":%llu",
      static_cast<unsigned long long>(result.accepted),
      static_cast<unsigned long long>(result.dropped_oldest),
      static_cast<unsigned long long>(result.dropped_newest));
  if (result.max_accepted_ts != stream::PushResult::kNoTimestamp) {
    body += util::strFormat(",\"max_accepted_ts\":%lld",
                            static_cast<long long>(result.max_accepted_ts));
  }
  body += "}\n";
  return jsonResponse(200, std::move(body));
}

obs::HttpResponse TenantRouter::handleStatusz(
    const obs::HttpRequest& request) {
  (void)request;
  std::string out = "{";
  out += "\"build\":" + obs::buildInfoJson() + ",";
  out += util::strFormat("\"tenant_count\":%llu,",
                         static_cast<unsigned long long>(catalog_.size()));
  out += "\"tenants\":[";
  bool first = true;
  for (const auto& tenant : catalog_.list()) {
    if (!first) out += ",";
    first = false;
    out += tenantJson(*tenant);
  }
  out += "]}\n";
  return jsonResponse(200, std::move(out));
}

}  // namespace rap::svc
