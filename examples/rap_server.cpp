// rap_server — multi-tenant localization-as-a-service daemon: a
// DatasetCatalog of named tenants (each its own schema, RapMiner
// config, JobManager quota, result cache, and optionally a
// StreamEngine) served through the resource-oriented v1 API on the
// embedded admin HTTP server, in one process.
//
//   $ ./rap_server --schema schema.csv [--port 8080]
//   $ ./rap_server --tenants catalog.json
//   $ curl -X POST --data-binary @snapshot.csv \
//         'http://127.0.0.1:8080/api/v1/tenants/default/localize?k=5'
//   $ curl 'http://127.0.0.1:8080/api/v1/tenants'
//   $ curl -X PUT --data-binary @tenant.json \
//         'http://127.0.0.1:8080/api/v1/tenants/edge-eu'
//   $ curl 'http://127.0.0.1:8080/metrics'
//
// The flags configure the "default" tenant, which also answers the
// legacy un-prefixed endpoints (POST /api/v1/localize, GET
// /api/v1/jobs) — a single-tenant deployment upgrades unchanged.
// --tenants loads additional tenants from a sidecar file (see
// src/svc/tenant_config.h for the JSON dialect); a sidecar entry named
// "default" replaces the flags-built default tenant entirely.
//
// Without --schema the default tenant serves the built-in demo schema
// (dataset::Schema::tiny()), which is what the CI smoke test posts
// against.  The bound port is printed on stdout ("listening on ...") so
// scripts can scrape it when --port 0 picks an ephemeral port.
//
// The daemon runs until SIGINT/SIGTERM, then shuts down in order: the
// HTTP server first (in-flight requests finish), then every tenant —
// stream engines seal and localize what they buffered, job managers
// run down their queues against the shared pool.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/rapminer.h"
#include "dataset/schema.h"
#include "fault/fault.h"
#include "io/dataset_io.h"
#include "obs/admin_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/catalog.h"
#include "svc/job_journal.h"
#include "svc/router.h"
#include "svc/supervisor.h"
#include "svc/tenant_config.h"
#include "util/flags.h"

using namespace rap;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void onSignal(int) { g_shutdown = 1; }

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  flags.addString("schema", "",
                  "default tenant schema sidecar CSV; empty serves the "
                  "built-in demo schema");
  flags.addString("tenants", "",
                  "tenant catalog sidecar JSON ({\"tenants\":[...]})");
  flags.addString("bind", "127.0.0.1", "listen address");
  flags.addInt("port", 8080, "listen port (0 = ephemeral, printed on stdout)");
  flags.addInt("http-workers", 2, "HTTP worker threads");
  flags.addInt("job-workers", 2,
               "workers of the pool shared by all tenants: their jobs and "
               "stream localizations");
  flags.addInt("queue-capacity", 64,
               "default tenant: queued jobs beyond which POSTs shed with 429");
  flags.addInt("max-active", 0,
               "default tenant: concurrent-execution quota on the shared "
               "pool (0 = bounded only by the pool)");
  flags.addInt("cache-capacity", 128,
               "default tenant: result cache entries (0 disables)");
  flags.addDouble("cache-ttl", 300.0,
                  "default tenant: result cache TTL in seconds (0 = never "
                  "expires)");
  flags.addInt("sync-row-limit", 4096,
               "auto mode: snapshots up to this many rows run synchronously");
  flags.addInt("k", 5, "default top-k patterns per request");
  flags.addDouble("t-cp", 0.0005, "default classification-power threshold");
  flags.addDouble("t-conf", 0.8, "default anomaly-confidence threshold");
  flags.addDouble("detect-threshold", 0.095,
                  "relative-deviation threshold for unlabeled snapshots");
  flags.addDouble("read-timeout", 10.0,
                  "per-connection socket read timeout in seconds");
  flags.addBool("trace", false, "record trace spans (serve via /tracez)");
  flags.addString("journal", "",
                  "durable job journal file (RAPJRNL 2); accepted async "
                  "jobs survive kill -9 and replay on startup.  Empty "
                  "disables journaling");
  flags.addDouble("max-deadline", 0.0,
                  "default tenant: cap on the per-request deadline "
                  "override in seconds (0 = uncapped)");
  flags.addDouble("overload-target", 0.0,
                  "default tenant: CoDel-style queue-delay target in "
                  "seconds; sheds with 429 `overloaded` when exceeded for "
                  "a full interval (0 disables)");
  flags.addDouble("overload-interval", 1.0,
                  "default tenant: how long the queue delay must stay "
                  "above target before shedding starts");
  flags.addInt("breaker-threshold", 0,
               "default tenant: consecutive localize failures that open "
               "the circuit breaker (0 disables)");
  flags.addDouble("breaker-open", 5.0,
                  "default tenant: seconds the breaker stays open before "
                  "half-open probes");
  flags.addBool("supervise", true,
                "restart crashed tenant stream engines (checkpoint "
                "restore + exponential backoff + quarantine)");
  flags.addDouble("supervise-interval", 0.5,
                  "supervisor poll interval in seconds");
  flags.addInt("supervise-max-restarts", 5,
               "consecutive failed restarts before a tenant is "
               "quarantined");
  if (auto status = flags.parse(argc, argv); !status.isOk()) {
    std::fprintf(stderr, "%s\n%s", status.toString().c_str(),
                 flags.helpText(argv[0]).c_str());
    return 2;
  }

  // A serving daemon always publishes its metrics; tracing is opt-in
  // (span buffers grow until scraped, wrong default for a long run).
  obs::setMetricsEnabled(true);
  obs::setTracingEnabled(flags.getBool("trace"));

  // Chaos harness: arm fault points from the environment on a build
  // with -DRAP_FAULT_INJECTION=ON (no-op otherwise).  Spec grammar in
  // fault/fault.h; e.g. RAP_FAULT_ARM="svc.tenant=error:0.5".
  if (const char* arm = std::getenv("RAP_FAULT_ARM");
      arm != nullptr && *arm != '\0') {
    auto armed = fault::armFromSpec(arm);
    if (!armed.isOk()) {
      std::fprintf(stderr, "RAP_FAULT_ARM: %s\n",
                   armed.status().toString().c_str());
      return 2;
    }
    if (fault::kCompiledIn) {
      std::printf("fault injection: %d point(s) armed\n", armed.value());
    } else {
      std::fprintf(stderr,
                   "RAP_FAULT_ARM set but fault injection is compiled "
                   "out (-DRAP_FAULT_INJECTION=ON)\n");
    }
  }

  // Sidecar tenants first — an entry named "default" overrides the
  // flags-built one.
  std::vector<svc::TenantSpec> sidecar;
  std::string sidecar_dir;
  const std::string tenants_path = flags.getString("tenants");
  if (!tenants_path.empty()) {
    auto loaded = svc::loadTenantSidecar(tenants_path);
    if (!loaded.isOk()) {
      std::fprintf(stderr, "tenants: %s\n",
                   loaded.status().toString().c_str());
      return 1;
    }
    sidecar = std::move(loaded.value());
    const std::size_t slash = tenants_path.find_last_of('/');
    if (slash != std::string::npos) sidecar_dir = tenants_path.substr(0, slash);
  }
  bool sidecar_has_default = false;
  for (const auto& spec : sidecar) {
    if (spec.name == "default") sidecar_has_default = true;
  }

  // The journal outlives the catalog (services hold a raw pointer and
  // write completion markers from their teardown drains).
  std::unique_ptr<svc::JobJournal> journal;
  const std::string journal_path = flags.getString("journal");
  if (!journal_path.empty()) {
    auto opened = svc::JobJournal::open({.path = journal_path});
    if (!opened.isOk()) {
      std::fprintf(stderr, "journal: %s\n",
                   opened.status().toString().c_str());
      return 1;
    }
    journal = std::move(opened.value());
  }

  svc::DatasetCatalog::Options catalog_options;
  catalog_options.pool_threads =
      static_cast<std::size_t>(flags.getInt("job-workers"));
  catalog_options.journal = journal.get();
  svc::DatasetCatalog catalog(catalog_options);

  if (!sidecar_has_default) {
    svc::TenantSpec spec;
    spec.name = "default";
    spec.schema = dataset::Schema::tiny();
    const std::string schema_path = flags.getString("schema");
    if (!schema_path.empty()) {
      auto loaded = io::loadSchema(schema_path);
      if (!loaded.isOk()) {
        std::fprintf(stderr, "schema: %s\n",
                     loaded.status().toString().c_str());
        return 1;
      }
      spec.schema = std::move(loaded.value());
    } else {
      std::printf("no --schema given; serving the built-in demo schema\n");
    }

    const auto base = core::RapMiner::Builder()
                          .tCp(flags.getDouble("t-cp"))
                          .tConf(flags.getDouble("t-conf"))
                          .build();
    if (!base.isOk()) {
      std::fprintf(stderr, "config: %s\n", base.status().toString().c_str());
      return 2;
    }
    spec.miner = base->config();
    spec.service.default_k = static_cast<std::int32_t>(flags.getInt("k"));
    spec.service.default_detect_threshold =
        flags.getDouble("detect-threshold");
    spec.service.sync_row_limit =
        static_cast<std::size_t>(flags.getInt("sync-row-limit"));
    spec.service.jobs.queue_capacity =
        static_cast<std::size_t>(flags.getInt("queue-capacity"));
    spec.service.jobs.max_active =
        static_cast<std::size_t>(flags.getInt("max-active"));
    spec.service.cache.capacity =
        static_cast<std::size_t>(flags.getInt("cache-capacity"));
    spec.service.cache.ttl_seconds = flags.getDouble("cache-ttl");
    spec.service.max_deadline_seconds = flags.getDouble("max-deadline");
    spec.service.jobs.overload.target_delay_seconds =
        flags.getDouble("overload-target");
    spec.service.jobs.overload.interval_seconds =
        flags.getDouble("overload-interval");
    spec.service.breaker.failure_threshold =
        static_cast<std::size_t>(flags.getInt("breaker-threshold"));
    spec.service.breaker.open_seconds = flags.getDouble("breaker-open");
    if (auto status = catalog.put(std::move(spec)); !status.isOk()) {
      std::fprintf(stderr, "default tenant: %s\n",
                   status.toString().c_str());
      return 2;
    }
  }
  for (auto& spec : sidecar) {
    const std::string name = spec.name;
    if (auto status = catalog.put(std::move(spec)); !status.isOk()) {
      std::fprintf(stderr, "tenant '%s': %s\n", name.c_str(),
                   status.toString().c_str());
      return 2;
    }
  }

  // Replay journaled work accepted before the last crash, before the
  // listener opens — replayed jobs queue ahead of new traffic.
  if (journal != nullptr && journal->liveCount() > 0) {
    const svc::ReplaySummary replay = svc::replayJournal(*journal, catalog);
    std::printf("journal: replayed %zu job(s), dropped %zu\n",
                replay.replayed, replay.dropped);
  }

  svc::EngineSupervisor::Options supervisor_options;
  supervisor_options.poll_interval_seconds =
      flags.getDouble("supervise-interval");
  supervisor_options.max_restarts =
      static_cast<std::size_t>(flags.getInt("supervise-max-restarts"));
  svc::EngineSupervisor supervisor(catalog, supervisor_options);
  if (flags.getBool("supervise")) supervisor.start();

  svc::TenantRouter::Options router_options;
  router_options.schema_base_dir = sidecar_dir;
  svc::TenantRouter router(catalog, router_options);

  obs::AdminServer::Options server_options;
  server_options.bind_address = flags.getString("bind");
  server_options.port = static_cast<std::uint16_t>(flags.getInt("port"));
  server_options.workers =
      static_cast<std::size_t>(flags.getInt("http-workers"));
  server_options.read_timeout_seconds = flags.getDouble("read-timeout");
  obs::AdminServer server(server_options);
  obs::registerObsEndpoints(server);
  router.installEndpoints(server);

  if (auto status = server.start(); !status.isOk()) {
    std::fprintf(stderr, "start: %s\n", status.toString().c_str());
    return 1;
  }
  std::printf("listening on http://%s:%u/\n",
              server_options.bind_address.c_str(), server.port());
  std::printf("serving %zu tenant(s):", catalog.size());
  for (const auto& name : catalog.names()) std::printf(" %s", name.c_str());
  std::printf("\nPOST /api/v1/tenants/<t>/localize | GET /api/v1/tenants | "
              "GET /metrics\n");
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (g_shutdown == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  // Order matters: no new requests, stop supervising (a draining engine
  // must not be "restarted"), then drain every tenant (engines seal +
  // localize buffered windows, job managers run down) via the catalog's
  // destructor; the journal closes last, after teardown drains wrote
  // their completion markers.
  server.stop();
  supervisor.stop();
  return 0;
}
