#include "svc/supervisor.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace rap::svc {

namespace {

bool fileExists(const std::string& path) {
  struct stat st{};
  return !path.empty() && ::stat(path.c_str(), &st) == 0;
}

/// initial * 2^(failures-1), capped at max.
std::chrono::steady_clock::duration backoffAfter(
    std::size_t failures, const EngineSupervisor::Options& options) {
  const double backoff =
      std::min(options.backoff_max_seconds,
               options.backoff_initial_seconds *
                   static_cast<double>(
                       1ull << std::min<std::size_t>(
                           failures == 0 ? 0 : failures - 1, 30)));
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(backoff));
}

}  // namespace

EngineSupervisor::EngineSupervisor(DatasetCatalog& catalog, Options options)
    : catalog_(catalog), options_(std::move(options)) {}

EngineSupervisor::~EngineSupervisor() { stop(); }

void EngineSupervisor::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { loop(); });
}

void EngineSupervisor::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!running_) return;
    stop_ = true;
  }
  wake_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  running_ = false;
}

bool EngineSupervisor::running() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

EngineSupervisor::SupervisorStats EngineSupervisor::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void EngineSupervisor::loop() {
  const auto interval = std::chrono::duration<double>(
      options_.poll_interval_seconds <= 0.0 ? 0.5
                                            : options_.poll_interval_seconds);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    sweep();
    lock.lock();
    wake_.wait_for(
        lock, std::chrono::duration_cast<std::chrono::milliseconds>(interval),
        [this] { return stop_; });
  }
}

void EngineSupervisor::sweepAt(std::chrono::steady_clock::time_point now) {
  // Snapshot outside the lock — catalog_.list() takes the catalog mutex
  // and handlers hold tenant shared_ptrs of their own.
  const auto tenants = catalog_.list();

  std::lock_guard<std::mutex> lock(mutex_);
  // Forget state for removed tenants so a delete + re-put starts with a
  // clean failure budget.
  for (auto it = states_.begin(); it != states_.end();) {
    const std::string& name = it->first;
    const bool live =
        std::any_of(tenants.begin(), tenants.end(),
                    [&name](const auto& t) { return t->spec.name == name; });
    it = live ? std::next(it) : states_.erase(it);
  }
  for (const auto& tenant : tenants) {
    if (!tenant->spec.streaming || tenant->quarantined()) continue;
    superviseLocked(*tenant, states_[tenant->spec.name], now);
  }
}

void EngineSupervisor::superviseLocked(
    DatasetCatalog::Tenant& tenant, TenantState& state,
    std::chrono::steady_clock::time_point now) {
  const TenantSpec& spec = tenant.spec;
  const auto engine = tenant.engine();

  if (engine != nullptr && engine->running()) {
    if (state.awaiting_health) {
      // The last restart survived a full poll interval: the engine is
      // genuinely back, so the failure budget resets.
      state.awaiting_health = false;
      state.failed_restarts = 0;
    }
    if (spec.checkpoint_interval_seconds > 0.0 &&
        !spec.checkpoint_path.empty()) {
      const double since =
          std::chrono::duration<double>(now - state.last_checkpoint).count();
      if (state.last_checkpoint.time_since_epoch().count() == 0 ||
          since >= spec.checkpoint_interval_seconds) {
        const util::Status written = engine->checkpoint(spec.checkpoint_path);
        state.last_checkpoint = now;
        if (written.isOk()) {
          ++stats_.checkpoints;
        } else {
          RAP_LOG_KV(Warn, {"tenant", spec.name})
              << "periodic checkpoint failed: " << written.toString();
        }
      }
    }
    return;
  }

  // Engine is missing or dead.  A swap that did not survive to this
  // sweep counts against the failure budget too — a crash-looping
  // engine must converge on quarantine, not restart forever.
  if (state.awaiting_health) {
    state.awaiting_health = false;
    ++state.failed_restarts;
    ++stats_.failures;
    if (state.failed_restarts >= options_.max_restarts) {
      tenant.setQuarantined(true);
      ++stats_.quarantines;
      RAP_LOG_KV(Error, {"tenant", spec.name},
                 {"failed_restarts", state.failed_restarts})
          << "engine restarts exhausted; tenant quarantined";
      return;
    }
    state.next_attempt = now + backoffAfter(state.failed_restarts, options_);
  }
  // Respect the backoff clock.
  if (state.failed_restarts > 0 && now < state.next_attempt) return;

  std::shared_ptr<stream::StreamEngine> replacement;
  bool restored = false;
  if (fileExists(spec.checkpoint_path)) {
    auto result = stream::StreamEngine::restore(spec.schema, spec.stream,
                                                spec.checkpoint_path);
    if (result.isOk()) {
      replacement = std::shared_ptr<stream::StreamEngine>(
          std::move(result.value()));
      restored = true;
    } else {
      RAP_LOG_KV(Warn, {"tenant", spec.name}, {"path", spec.checkpoint_path})
          << "checkpoint restore failed, engine stays down: "
          << result.status().toString();
    }
  } else {
    // No checkpoint to resume from: a fresh engine loses buffered
    // window state but revives ingest.
    replacement =
        std::make_shared<stream::StreamEngine>(spec.schema, spec.stream);
  }

  if (replacement != nullptr) {
    replacement->start();
    tenant.replaceEngine(replacement);
    state.awaiting_health = true;
    ++stats_.restarts;
    if (restored) ++stats_.restores;
    RAP_LOG_KV(Info, {"tenant", spec.name},
               {"from_checkpoint", restored ? "true" : "false"},
               {"attempt", state.failed_restarts + 1})
        << "stream engine restarted";
    return;
  }

  ++state.failed_restarts;
  ++stats_.failures;
  if (state.failed_restarts >= options_.max_restarts) {
    tenant.setQuarantined(true);
    ++stats_.quarantines;
    RAP_LOG_KV(Error, {"tenant", spec.name},
               {"failed_restarts", state.failed_restarts})
        << "engine restarts exhausted; tenant quarantined";
    return;
  }
  state.next_attempt = now + backoffAfter(state.failed_restarts, options_);
}

}  // namespace rap::svc
