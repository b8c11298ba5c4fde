#include "svc/catalog.h"

#include <utility>

namespace rap::svc {

DatasetCatalog::DatasetCatalog() : DatasetCatalog(Options{}) {}

DatasetCatalog::DatasetCatalog(Options options)
    : options_(options),
      pool_(options.pool_threads == 0 ? 1 : options.pool_threads) {
  if (obs::metricsEnabled()) {
    tenants_gauge_ = &obs::defaultRegistry().gauge("rap_svc_tenants");
  }
}

DatasetCatalog::~DatasetCatalog() {
  // Tear tenants down before pool_'s own destructor runs: each
  // JobManager and StreamEngine waits for its outstanding closures on
  // the still-live shared pool.
  std::map<std::string, std::shared_ptr<Tenant>> tenants;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tenants.swap(tenants_);
  }
  tenants.clear();
}

util::Status DatasetCatalog::put(TenantSpec spec) {
  RAP_RETURN_IF_ERROR(validateTenantName(spec.name));

  // The engine is wired here once and stored that way: the supervisor
  // rebuilds and restores a tenant's engine from tenant->spec.stream
  // unchanged, so every engine of a tenant carries its metric identity
  // and localizes on the shared pool.
  spec.stream.metric_tenant = spec.name;
  spec.stream.shared_pool = &pool_;
  auto tenant = std::make_shared<Tenant>();
  tenant->spec = spec;

  // Wire the spec to this catalog.  The "default" tenant keeps the
  // legacy un-prefixed job URLs so pre-catalog clients see identical
  // responses; every other tenant lives under its resource path.
  spec.service.tenant = spec.name;
  spec.service.jobs_path_prefix =
      spec.name == "default" ? "/api/v1/jobs/"
                             : "/api/v1/tenants/" + spec.name + "/jobs/";
  spec.service.jobs.metric_labels = {{"tenant", spec.name}};
  spec.service.jobs.shared_pool = &pool_;
  spec.service.journal = options_.journal;
  tenant->service = std::make_unique<LocalizeService>(
      spec.schema, spec.miner, std::move(spec.service));

  if (spec.streaming) {
    auto engine = std::make_shared<stream::StreamEngine>(
        std::move(spec.schema), std::move(spec.stream));
    engine->start();
    tenant->replaceEngine(std::move(engine));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        tenants_.emplace(tenant->spec.name, std::move(tenant));
    if (!inserted) {
      // The freshly built tenant (and its started engine) dies here —
      // it never served a request, so teardown is immediate.
      return util::Status::failedPrecondition("tenant '" + it->first +
                                              "' already exists");
    }
    if (tenants_gauge_ != nullptr) {
      tenants_gauge_->set(static_cast<double>(tenants_.size()));
    }
  }
  return util::Status::ok();
}

util::Result<std::shared_ptr<DatasetCatalog::Tenant>> DatasetCatalog::remove(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    return util::Status::notFound("no such tenant '" + name + "'");
  }
  std::shared_ptr<Tenant> tenant = std::move(it->second);
  tenants_.erase(it);
  if (tenants_gauge_ != nullptr) {
    tenants_gauge_->set(static_cast<double>(tenants_.size()));
  }
  return tenant;
}

std::shared_ptr<DatasetCatalog::Tenant> DatasetCatalog::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

std::vector<std::string> DatasetCatalog::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::vector<std::shared_ptr<DatasetCatalog::Tenant>> DatasetCatalog::list()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<Tenant>> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) out.push_back(tenant);
  return out;
}

std::size_t DatasetCatalog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tenants_.size();
}

}  // namespace rap::svc
