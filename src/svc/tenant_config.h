// Tenant specifications (src/svc) — the JSON dialect that describes
// one tenant of the multi-tenant serving plane, shared by the startup
// sidecar file (`rap_server --tenants catalog.json`) and the dynamic
// PUT /api/v1/tenants/<name> body.
//
// One tenant spec:
//
//   {
//     "schema": {"builtin": "tiny"}            // or {"path": "schema.csv"}
//            // or {"attributes": [{"name": "A", "elements": ["a1", ...]}]}
//     "k": 5, "t_cp": 0.0005, "t_conf": 0.8,   // RapMiner knobs
//     "detect_threshold": 0.095,
//     "sync_row_limit": 4096,                  // service routing
//     "max_deadline_seconds": 0,               // per-request deadline cap
//     "queue_capacity": 64, "max_active": 0,   // job manager
//     "retry_after_seconds": 1.0,              // <= 86400
//     "cache_capacity": 128, "cache_ttl_seconds": 300,
//     "overload": {                            // CoDel-style shedding
//       "target_delay_seconds": 0, "interval_seconds": 1.0
//     },
//     "breaker": {                             // circuit breaker
//       "failure_threshold": 0, "open_seconds": 5.0, "half_open_probes": 1
//     },
//     "streaming": {                           // optional StreamEngine
//       "shards": 4, "window_width": 60,
//       "trigger": "on-alarm" | "anomalous-window" | "every-window",
//       "top_k": 5, "allowed_lateness": 0,
//       "checkpoint_path": "",                 // supervisor restore source
//       "checkpoint_interval_seconds": 0       // periodic checkpoint cadence
//     }
//   }
//
// Every field is optional except "schema"; defaults mirror the
// single-tenant flag defaults of rap_server.  No spec sizes a pool: a
// tenant's jobs and stream localizations all run on the catalog's
// shared pool (rap_server --job-workers), so "workers" and
// "streaming.localize_threads" are unknown fields.  The sidecar file is
// {"tenants": [{"name": "...", ...spec...}, ...]}.
//
// Validation philosophy matches the localize handler: everything
// user-supplied is checked here (unknown field -> error, so a typo'd
// knob never silently serves defaults) and the miner config goes
// through RapMiner::Builder::validate, so a bad spec is a 400 at PUT
// time or a startup error — never a RAP_CHECK abort later.
#pragma once

#include <string>
#include <vector>

#include "core/rapminer.h"
#include "dataset/schema.h"
#include "stream/config.h"
#include "svc/json_value.h"
#include "svc/service.h"
#include "util/status.h"

namespace rap::svc {

/// Everything needed to register one tenant with the DatasetCatalog.
struct TenantSpec {
  std::string name;
  /// Placeholder default (Schema has no empty state); parseTenantSpec
  /// rejects specs that do not set it explicitly.
  dataset::Schema schema = dataset::Schema::tiny();
  core::RapMinerConfig miner;
  /// Service options (jobs + cache + routing); tenant/jobs_path_prefix
  /// and the shared-pool wiring are set by the catalog on a copy.
  LocalizeService::Options service;
  /// When true the tenant also runs a StreamEngine fed by
  /// POST /api/v1/tenants/<name>/ingest.
  bool streaming = false;
  /// The catalog stores it wired (metric_tenant, shared_pool), and the
  /// supervisor builds every replacement engine from it as is.
  stream::StreamConfig stream;
  /// RAPCHKPT-1 file the supervisor restores a crashed engine from (and,
  /// with a positive interval, periodically checkpoints a healthy one
  /// to).  Empty disables both — a crashed engine restarts fresh.
  std::string checkpoint_path;
  double checkpoint_interval_seconds = 0.0;
};

/// Valid tenant names: [A-Za-z0-9_-]{1,64} (they appear in URL paths
/// and metric label values).
util::Status validateTenantName(const std::string& name);

/// Parses one tenant spec object.  `name` is the tenant name from the
/// URL (PUT) or the sidecar entry; `base_dir` resolves relative schema
/// paths (empty = process CWD).
util::Result<TenantSpec> parseTenantSpec(const JsonValue& doc,
                                         std::string name,
                                         const std::string& base_dir = {});

/// Loads a sidecar file: {"tenants":[{"name":...,...}, ...]}.
/// Duplicate names are an error.
util::Result<std::vector<TenantSpec>> loadTenantSidecar(
    const std::string& path);

}  // namespace rap::svc
