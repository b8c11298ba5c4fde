// DatasetCatalog (src/svc) — the tenant registry of the multi-tenant
// serving plane.
//
// One catalog owns:
//   * a shared util::ThreadPool that every tenant's JobManager draws
//     workers from (per-tenant `max_active` quotas bound how much of it
//     one tenant may hold at once) and every streaming tenant's engine
//     localizes its windows on (at most StreamConfig::localize_threads
//     of one engine's windows at once), and
//   * a name -> Tenant map, where each Tenant bundles the
//     LocalizeService (jobs + result cache, labeled {tenant="<name>"})
//     and, for streaming tenants, a running StreamEngine fed by
//     POST /api/v1/tenants/<name>/ingest.
//
// Lifecycle: tenants register at startup from a sidecar file
// (svc::loadTenantSidecar) or dynamically via PUT — put() is
// create-only (kFailedPrecondition on a live name, -> 409), remove() hands
// the Tenant back to the caller so the HTTP layer can finish the
// response before the drain (stop the engine, run down in-flight jobs)
// happens.  Handlers hold the shared_ptr returned by find() for the
// duration of a request, so deleting a tenant never invalidates a
// request already executing against it.
//
// The pool is declared before the tenant map and the destructor clears
// the map first, so tenant teardown (which waits for its outstanding
// pool closures) always runs against a live pool.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "stream/engine.h"
#include "svc/service.h"
#include "svc/tenant_config.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rap::svc {

class DatasetCatalog {
 public:
  struct Options {
    /// Workers of the shared job pool all tenants draw from.
    std::size_t pool_threads = 4;
    /// Durable job journal shared by every tenant's service; not owned,
    /// may be null (async admissions are then memory-only).
    JobJournal* journal = nullptr;
  };

  /// One live tenant.  The spec and service are immutable after
  /// registration (tenant updates are delete + re-put); the engine slot
  /// is mutable behind a mutex so the supervisor can swap a crashed
  /// engine for a restored one without re-registering the tenant.
  struct Tenant {
    TenantSpec spec;
    std::unique_ptr<LocalizeService> service;

    /// Running engine (or null for batch-only tenants).  Handlers take
    /// the shared_ptr once and use it for the whole request, so a
    /// supervisor swap mid-request never yanks the engine out from
    /// under them.
    std::shared_ptr<stream::StreamEngine> engine() const {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      return engine_;
    }
    /// Supervisor-only: installs a freshly restored engine (or null).
    void replaceEngine(std::shared_ptr<stream::StreamEngine> engine) {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      engine_ = std::move(engine);
    }

    /// Quarantined = the supervisor gave up restarting this tenant's
    /// engine; sub-resources answer 503 tenant_unavailable until a
    /// delete + re-put.
    bool quarantined() const {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      return quarantined_;
    }
    void setQuarantined(bool value) {
      std::lock_guard<std::mutex> lock(engine_mutex_);
      quarantined_ = value;
    }

   private:
    friend class DatasetCatalog;
    mutable std::mutex engine_mutex_;
    std::shared_ptr<stream::StreamEngine> engine_;
    bool quarantined_ = false;
  };

  DatasetCatalog();
  explicit DatasetCatalog(Options options);

  DatasetCatalog(const DatasetCatalog&) = delete;
  DatasetCatalog& operator=(const DatasetCatalog&) = delete;

  /// Drains and destroys every remaining tenant (engines stopped, jobs
  /// run down), then the shared pool.
  ~DatasetCatalog();

  /// Registers a tenant: wires the spec's service options to this
  /// catalog (tenant label, jobs path prefix, shared pool), constructs
  /// the LocalizeService, and starts the StreamEngine for streaming
  /// specs, with spec.stream wired to the tenant label and shared pool
  /// (and stored that way in Tenant::spec).  Create-only:
  /// kFailedPrecondition if the name is live.
  util::Status put(TenantSpec spec);

  /// Unregisters `name` and returns the Tenant so the caller controls
  /// when the drain runs (destroying the returned pointer stops the
  /// engine and waits out in-flight jobs).  kNotFound if absent.
  util::Result<std::shared_ptr<Tenant>> remove(const std::string& name);

  /// The live tenant named `name`, or null.  The returned pointer keeps
  /// the tenant alive across a concurrent remove().
  std::shared_ptr<Tenant> find(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Snapshot of every live tenant (for /statusz and tenant listing).
  std::vector<std::shared_ptr<Tenant>> list() const;

  std::size_t size() const;

  util::ThreadPool& pool() noexcept { return pool_; }

 private:
  Options options_;
  /// Shared by every tenant's JobManager and StreamEngine; declared
  /// before tenants_ so it outlives their teardown waits.
  util::ThreadPool pool_;
  obs::Gauge* tenants_gauge_ = nullptr;  ///< rap_svc_tenants

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace rap::svc
