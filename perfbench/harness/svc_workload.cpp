// svc_incident and svc_deep: real HTTP/1.1 localize requests against
// the serving stack examples/rap_server assembles (catalog, default
// tenant, router, supervisor, obs::AdminServer on a loopback ephemeral
// port), built in process with that daemon's defaults.
//
// Paced: every client owns one connection at a time (the server closes
// each after replying).  Its g-th snapshot is due at start + g / rate; it
// posts the snapshot once (a cache miss) and then re-posts the identical
// bytes `resubmits` times, each right after the previous reply (hits).
// A snapshot whose slot the previous one's replies overran is timed from
// its due time, so a backlog is charged to the requests behind it.
//
// The traced run measures the same operations over HTTP, then replays
// each one on the client's thread three times, back to back in rotating
// order: once through an in-process LocalizeService::handleLocalize
// (span svc.handle), once stage by stage through the public functions
// the handler calls (hash, cache, parse, detect, cp, search, rank,
// render), each inside a span under svc.staged, and once through the
// same stages with no spans, which prices the tracing.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <latch>
#include <map>
#include <memory>
#include <optional>

#include "core/rapminer.h"
#include "core/search.h"
#include "detect/detector.h"
#include "inputs.h"
#include "io/csv.h"
#include "io/dataset_io.h"
#include "io/json.h"
#include "obs/admin_server.h"
#include "svc/catalog.h"
#include "svc/result_cache.h"
#include "svc/router.h"
#include "svc/snapshot.h"
#include "svc/supervisor.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace rap;

constexpr const char* kLocalizePath = "/api/v1/tenants/default/localize";

struct SvcShape {
  dataset::Schema schema = dataset::Schema::cdn();
  bool labeled = false;
  double label_noise = 0.0;
  Knobs knobs;
  std::size_t clients = 1;
  int resubmits = 0;        ///< identical re-posts after each first post
  std::int32_t cases = 0;   ///< distinct generated snapshots
  std::int32_t warmup = 4;  ///< extra snapshots posted during set-up
  /// Snapshots per second the clients offer: about half of what the
  /// stack completes back to back on a 4-vCPU VM (NOTES.md), so a slow
  /// stretch of the shared host delays requests but not the schedule.
  double miss_rate = 0.0;
};

SvcShape shapeFor(const std::string& workload) {
  SvcShape shape;
  if (workload == "svc_deep") {
    // Fig. 10(a)'s low end: keep every attribute of the 8-attribute
    // synthetic schema; labeled bodies, so the service skips detection.
    shape.schema = dataset::Schema::synthetic({5, 4, 4, 3, 3, 3, 2, 2});
    shape.labeled = true;
    shape.label_noise = 0.02;
    shape.knobs.t_cp = 0.0;
    shape.knobs.query = "mode=sync&t_cp=0";
    shape.clients = 1;
    shape.resubmits = 3;
    shape.cases = 200;
    shape.miss_rate = 10.0;
  } else {
    // One alarm fans out to several detectors asking about one window:
    // the first post parses and searches, the resubmissions hit the
    // cache.  One client (NOTES.md: with more, hits queued behind misses
    // and the host's CPU steal moved throughput by up to a quarter).
    shape.clients = 1;
    shape.resubmits = 3;
    shape.cases = 128;
    shape.miss_rate = 30.0;
  }
  return shape;
}

// ---------------------------------------------------------------- HTTP

struct HttpReply {
  int status = 0;
  std::string cache;  ///< X-Rap-Cache header value
  std::string body;
  std::string error;  ///< non-empty on a transport failure
};

bool sendAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// One request on a fresh connection; the server closes it after the
/// reply, so the response is everything read until EOF.
HttpReply httpPost(std::uint16_t port, const std::string& target,
                   const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    reply.error = std::string("socket: ") + std::strerror(errno);
    return reply;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    reply.error = std::string("connect: ") + std::strerror(errno);
  } else {
    std::string head = "POST " + target +
                       " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                       "Content-Type: text/csv\r\nConnection: close\r\n"
                       "Content-Length: " +
                       std::to_string(body.size()) + "\r\n\r\n";
    if (!sendAll(fd, head.data(), head.size()) ||
        !sendAll(fd, body.data(), body.size())) {
      reply.error = std::string("send: ") + std::strerror(errno);
    } else {
      char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n > 0) {
          raw.append(buf, static_cast<std::size_t>(n));
        } else if (n == 0) {
          break;
        } else if (errno != EINTR) {
          reply.error = std::string("recv: ") + std::strerror(errno);
          break;
        }
      }
    }
  }
  ::close(fd);
  if (!reply.error.empty()) return reply;

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos ||
      std::sscanf(raw.c_str(), "HTTP/1.%*d %d", &reply.status) != 1) {
    reply.error = "malformed response";
    return reply;
  }
  std::size_t line = raw.find("\r\n") + 2;
  while (line < head_end) {
    const std::size_t next = raw.find("\r\n", line);
    const std::size_t colon = raw.find(':', line);
    if (colon < next) {
      std::string name = raw.substr(line, colon - line);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      if (name == "x-rap-cache") {
        std::size_t v = colon + 1;
        while (v < next && raw[v] == ' ') ++v;
        reply.cache = raw.substr(v, next - v);
      }
    }
    line = next + 2;
  }
  reply.body = raw.substr(head_end + 4);
  return reply;
}

// --------------------------------------------------------------- stack

svc::TenantSpec defaultTenant(const dataset::Schema& schema) {
  // rap_server's flag defaults for the "default" tenant.
  svc::TenantSpec spec;
  spec.name = "default";
  spec.schema = schema;
  spec.miner = core::RapMiner::Builder().tCp(0.0005).tConf(0.8).build()->config();
  spec.service.default_k = 5;
  spec.service.default_detect_threshold = 0.095;
  spec.service.sync_row_limit = 4096;
  spec.service.jobs.queue_capacity = 64;
  spec.service.jobs.max_active = 0;
  spec.service.cache.capacity = 128;
  spec.service.cache.ttl_seconds = 300.0;
  return spec;
}

class SvcStack {
 public:
  explicit SvcStack(const dataset::Schema& schema)
      : catalog_(svc::DatasetCatalog::Options{.pool_threads = 2}),
        supervisor_(catalog_, {.poll_interval_seconds = 0.5, .max_restarts = 5}),
        router_(catalog_),
        server_(obs::AdminServer::Options{.workers = 2}) {
    RAP_CHECK(catalog_.put(defaultTenant(schema)).isOk());
    supervisor_.start();
    obs::registerObsEndpoints(server_);
    router_.installEndpoints(server_);
    RAP_CHECK(server_.start().isOk());
  }
  ~SvcStack() {
    server_.stop();
    supervisor_.stop();
  }
  SvcStack(const SvcStack&) = delete;
  SvcStack& operator=(const SvcStack&) = delete;

  std::uint16_t port() const { return server_.port(); }
  svc::LocalizeService& service() { return *catalog_.find("default")->service; }

 private:
  svc::DatasetCatalog catalog_;
  svc::EngineSupervisor supervisor_;
  svc::TenantRouter router_;
  obs::AdminServer server_;
};

// ---------------------------------------------------------------- plan

struct PlannedOp {
  std::int64_t id = 0;  ///< global operation index
  std::int32_t snapshot = 0;
  int variant = 0;
  bool expect_hit = false;
};

/// Client c owns snapshots c, c + clients, ...; it posts each once
/// (variant v on its v-th pass, so every first post is new to the cache)
/// and re-posts the same bytes `resubmits` times.
std::vector<std::vector<PlannedOp>> planOps(const SvcShape& shape,
                                            std::size_t firsts_per_client) {
  std::vector<std::vector<PlannedOp>> plan(shape.clients);
  std::int64_t id = 0;
  for (std::size_t c = 0; c < shape.clients; ++c) {
    std::vector<std::int32_t> owned;
    for (auto s = static_cast<std::int32_t>(c); s < shape.cases;
         s += static_cast<std::int32_t>(shape.clients)) {
      owned.push_back(s);
    }
    for (std::size_t i = 0; i < firsts_per_client; ++i) {
      const PlannedOp first{0, owned[i % owned.size()],
                            static_cast<int>(i / owned.size()), false};
      for (int r = 0; r <= shape.resubmits; ++r) {
        PlannedOp op = first;
        op.id = id++;
        op.expect_hit = r > 0;
        plan[c].push_back(op);
      }
    }
  }
  return plan;
}

// ----------------------------------------------------------- measuring

struct OpTiming {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool hit = false;
};

struct HttpPhase {
  std::vector<OpTiming> ops;  ///< indexed by PlannedOp::id
  double setup_s = 0.0;
  double wall_s = 0.0;
  double rate = 0.0;  ///< segmentedRate of the replies
  double cpu_s = 0.0;
  std::int64_t heap_peak = 0;
  svc::ResultCache::CacheStats cache;
};

/// Checks one reply against the expected class and document; returns
/// an empty string when it is correct.
std::string checkReply(int status, const std::string& cache,
                       const std::string& body, bool expect_hit,
                       const std::string& reference,
                       const std::string* miss_body) {
  if (status != 200) {
    return "HTTP " + std::to_string(status) + ": " + body.substr(0, 160);
  }
  if ((cache == "hit") != expect_hit) {
    return "X-Rap-Cache: '" + cache + "', expected " +
           (expect_hit ? "hit" : "miss");
  }
  if (expect_hit && miss_body != nullptr && body != *miss_body) {
    return "cache hit differs from the miss it replays";
  }
  if (canonicalDoc(body) != reference) {
    return "response differs from the reference document";
  }
  return {};
}

std::string checkReply(const HttpReply& reply, bool expect_hit,
                       const std::string& reference,
                       const std::string* miss_body) {
  if (!reply.error.empty()) return reply.error;
  return checkReply(reply.status, reply.cache, reply.body, expect_hit,
                    reference, miss_body);
}

HttpPhase runHttpPhase(const SvcShape& shape,
                       const std::vector<Snapshot>& snapshots,
                       const std::vector<Snapshot>& warmup,
                       const std::vector<std::vector<PlannedOp>>& plan,
                       int setup_rounds, RunResult& result) {
  const std::string target = std::string(kLocalizePath) + "?" + shape.knobs.query;
  std::size_t total_ops = 0;
  for (const auto& ops : plan) total_ops += ops.size();
  HttpPhase phase;
  phase.ops.resize(total_ops);

  const std::int64_t heap_base = heapBytes();
  HeapSampler heap;

  // Set-up: build the stack and post the warm-up snapshots (one miss and
  // one hit each).  Repeated; the median is setup_s and the last stack
  // serves the measurement.
  std::unique_ptr<SvcStack> stack;
  std::vector<double> setups;
  for (int round = 0; round < setup_rounds; ++round) {
    stack.reset();
    const std::int64_t start = nowNs();
    stack = std::make_unique<SvcStack>(shape.schema);
    for (const Snapshot& snapshot : warmup) {
      for (int r = 0; r < 2; ++r) {
        const HttpReply reply = httpPost(stack->port(), target, snapshot.csv);
        const std::string why =
            checkReply(reply, r == 1, snapshot.reference, nullptr);
        if (!why.empty()) result.fail("warm-up: " + why);
      }
    }
    setups.push_back(nsToMs(nowNs() - start) * 1e-3);
  }
  phase.setup_s = median(setups);

  std::vector<RunResult> client_results(plan.size());
  std::vector<std::vector<double>> lateness(plan.size());
  // Client c's g-th snapshot is due at wall_start + g * period.
  const double period_ns =
      1e9 * static_cast<double>(plan.size()) / shape.miss_rate;
  std::latch ready(static_cast<std::ptrdiff_t>(plan.size()) + 1);
  const double cpu_start = processCpuSeconds();
  const std::int64_t wall_start = nowNs() + 5'000'000;
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < plan.size(); ++c) {
      clients.emplace_back([&, c] {
        RunResult& mine = client_results[c];
        std::string body;
        std::string miss_body;
        std::int64_t group = 0;
        std::int64_t previous_return = 0;
        ready.arrive_and_wait();
        for (const PlannedOp& op : plan[c]) {
          const Snapshot& snapshot = snapshots[static_cast<std::size_t>(op.snapshot)];
          std::int64_t start = 0;
          if (op.expect_hit) {
            start = nowNs();
          } else {
            body = bodyVariant(snapshot, op.variant);
            const auto due = wall_start + static_cast<std::int64_t>(
                                              static_cast<double>(group++) * period_ns);
            std::this_thread::sleep_until(
                Clock::time_point(std::chrono::nanoseconds(due)));
            start = nowNs();
            // A snapshot whose slot the previous one overran counts from
            // its due time; otherwise from its send, so the client's own
            // wake-up jitter (its lateness) is not charged.
            if (previous_return > due) {
              start = due;
            } else {
              lateness[c].push_back(nsToMs(start - due));
            }
          }
          HttpReply reply = httpPost(stack->port(), target, body);
          const std::int64_t end = nowNs();
          previous_return = end;
          phase.ops[static_cast<std::size_t>(op.id)] = {start, end,
                                                        reply.cache == "hit"};
          ++mine.attempted;
          const std::string why = checkReply(reply, op.expect_hit,
                                             snapshot.reference,
                                             op.expect_hit ? &miss_body : nullptr);
          if (!why.empty()) {
            mine.fail("op " + std::to_string(op.id) + ": " + why);
          }
          if (!op.expect_hit) miss_body = std::move(reply.body);
        }
      });
    }
    ready.arrive_and_wait();
    for (auto& client : clients) client.join();
  }
  const std::int64_t wall_end = nowNs();
  std::vector<double> late;
  for (const auto& mine : lateness) late.insert(late.end(), mine.begin(), mine.end());
  const double late_p95 = quantile(late, 0.95);
  const double late_max = quantile(late, 1.0);
  std::printf("client lateness: p95 %.3f ms, max %.3f ms over %zu on-time sends "
              "(bounds %.1f / %.1f)\n",
              late_p95, late_max, late.size(), kLatenessP95BoundMs, kLatenessMaxBoundMs);
  if (late_p95 > kLatenessP95BoundMs || late_max > kLatenessMaxBoundMs) {
    result.fail("invalid run: load generator lateness above its bound");
  }
  phase.wall_s = nsToMs(wall_end - wall_start) * 1e-3;
  phase.cpu_s = processCpuSeconds() - cpu_start;
  std::vector<std::int64_t> ends;
  for (const OpTiming& op : phase.ops) ends.push_back(op.end_ns);
  phase.rate = segmentedRate(ends, wall_start, wall_end);
  phase.heap_peak = heap.segmentedPeak(wall_start, wall_end) - heap_base;
  phase.cache = stack->service().cache().stats();
  stack.reset();
  for (const RunResult& mine : client_results) result.merge(mine);
  return phase;
}

/// Latencies of one class, in the order the requests were sent.
std::vector<double> latenciesMs(const HttpPhase& phase, bool hits) {
  std::vector<OpTiming> ops;
  for (const OpTiming& op : phase.ops) {
    if (op.hit == hits) ops.push_back(op);
  }
  std::sort(ops.begin(), ops.end(), [](const OpTiming& a, const OpTiming& b) {
    return a.start_ns < b.start_ns;
  });
  std::vector<double> out;
  for (const OpTiming& op : ops) out.push_back(nsToMs(op.end_ns - op.start_ns));
  return out;
}

// ------------------------------------------------------- staged replay

std::uint64_t requestKey(const std::string& body, const Knobs& knobs) {
  // LocalizeService::requestKey, rebuilt from the public hash functions.
  std::uint64_t h = svc::contentHash(body);
  h = svc::hashMix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(knobs.k)));
  h = svc::hashMix(h, std::bit_cast<std::uint64_t>(knobs.t_cp));
  h = svc::hashMix(h, std::bit_cast<std::uint64_t>(knobs.t_conf));
  h = svc::hashMix(h, std::bit_cast<std::uint64_t>(knobs.deadline_seconds));
  h = svc::hashMix(h, std::bit_cast<std::uint64_t>(knobs.detect_threshold));
  return h == 0 ? 1 : h;
}

/// One operation through the handler's stages, each in its own span:
/// hash -> cache -> parse (csv_parse, table_build) -> execute (detect,
/// localize = cp + search + rank, render, cache put).  Returns the
/// canonical document of a miss (and its search effort), nullopt for a
/// hit.  A null log records no spans.
std::optional<std::string> stagedOp(const SvcShape& shape,
                                    const std::string& body, std::int64_t op,
                                    svc::ResultCache& cache,
                                    core::SearchWorkspace& workspace,
                                    SpanLog* log, core::SearchStats* effort) {
  ScopedSpan root(log, "svc.staged", op);
  std::uint64_t key = 0;
  {
    ScopedSpan span(log, "svc.hash", op);
    key = requestKey(body, shape.knobs);
  }
  {
    ScopedSpan span(log, "svc.cache", op);
    if (cache.get(key).has_value()) return std::nullopt;
  }
  std::optional<dataset::LeafTable> parsed;
  {
    ScopedSpan span(log, "svc.parse", op);
    auto rows = [&] {
      ScopedSpan inner(log, "io.csv_parse", op);
      return io::parseCsv(body);
    }();
    auto table = [&] {
      ScopedSpan inner(log, "io.table_build", op);
      return io::leafTableFromCsvRows(shape.schema, rows.value(), "request body");
    }();
    parsed.emplace(std::move(table.value()));
  }
  std::string doc;
  {
    ScopedSpan execute(log, "svc.execute", op);
    const core::RapMinerConfig config = shape.knobs.minerConfig();
    const auto miner = core::RapMiner::Builder().config(config).build();
    dataset::LeafTable table = *parsed;
    if (table.anomalousCount() == 0) {
      ScopedSpan span(log, "detect.run", op);
      detect::RelativeDeviationDetector(shape.knobs.detect_threshold).run(table);
    }
    core::LocalizationResult result =
        stagedLocalize(table, miner->config(), shape.knobs.k, workspace, log, op);
    {
      ScopedSpan span(log, "io.render", op);
      doc = io::resultToJson(shape.schema, result);
    }
    {
      ScopedSpan span(log, "svc.cache_put", op);
      cache.put(key, doc);
    }
    *effort = std::move(result.stats);
  }
  return canonicalDoc(doc);
}

struct Replay {
  std::vector<SpanLog> logs;  ///< one per client thread
  std::vector<std::int64_t> handle_ns;  ///< in-process handleLocalize, by op
  std::vector<std::int64_t> untraced_ns;  ///< stagedOp with no log, by op
  std::vector<bool> miss;                 ///< by op
  std::vector<core::SearchStats> efforts;  ///< one per miss
};

/// Replays the plan with the HTTP phase's concurrency.  Every operation
/// runs through an in-process twin of the tenant's LocalizeService,
/// through stagedOp with spans and through stagedOp without (its own
/// cache, so it sees the same hits and misses), back to back on one
/// thread.  The order rotates per operation, so no call always finds
/// the CPU caches warm; a first post comes every resubmits + 1 = 4
/// operations, which is coprime with 3, so misses rotate too.
Replay runReplay(const SvcShape& shape, const std::vector<Snapshot>& snapshots,
                 const std::vector<std::vector<PlannedOp>>& plan,
                 RunResult& result) {
  std::size_t total_ops = 0;
  for (const auto& ops : plan) total_ops += ops.size();
  Replay replay;
  replay.handle_ns.assign(total_ops, 0);
  replay.untraced_ns.assign(total_ops, 0);
  replay.miss.assign(total_ops, false);
  for (std::size_t c = 0; c < plan.size(); ++c) {
    replay.logs.emplace_back(static_cast<std::int32_t>(c + 1));
  }
  const svc::TenantSpec spec = defaultTenant(shape.schema);
  svc::LocalizeService twin(shape.schema, spec.miner, spec.service);
  svc::ResultCache cache(spec.service.cache);
  svc::ResultCache untraced_cache(spec.service.cache);
  std::vector<std::vector<core::SearchStats>> efforts(plan.size());
  std::vector<RunResult> client_results(plan.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < plan.size(); ++c) {
    threads.emplace_back([&, c] {
      core::SearchWorkspace workspace;
      obs::HttpRequest request;
      request.method = "POST";
      request.path = kLocalizePath;
      request.query = shape.knobs.query;
      request.headers.emplace_back("content-type", "text/csv");
      std::string miss_body;
      SpanLog& log = replay.logs[c];
      RunResult& mine = client_results[c];
      for (const PlannedOp& op : plan[c]) {
        const Snapshot& snapshot = snapshots[static_cast<std::size_t>(op.snapshot)];
        if (!op.expect_hit) request.body = bodyVariant(snapshot, op.variant);
        const auto twin_call = [&] {
          const std::int64_t start = nowNs();
          const obs::HttpResponse response = twin.handleLocalize(request);
          const std::int64_t end = nowNs();
          log.add("svc.handle", op.id, start, end);
          replay.handle_ns[static_cast<std::size_t>(op.id)] = end - start;
          std::string cache_header;
          for (const auto& [name, value] : response.headers) {
            if (name == "X-Rap-Cache") cache_header = value;
          }
          const std::string why =
              checkReply(response.status, cache_header, response.body,
                         op.expect_hit, snapshot.reference,
                         op.expect_hit ? &miss_body : nullptr);
          if (!why.empty()) mine.fail("in-process op " + std::to_string(op.id) + ": " + why);
          if (!op.expect_hit) miss_body = response.body;
        };
        core::SearchStats effort;
        std::optional<std::string> doc;
        const auto staged_call = [&] {
          doc = stagedOp(shape, request.body, op.id, cache, workspace, &log, &effort);
        };
        const auto untraced_call = [&] {
          core::SearchStats unused;
          const std::int64_t start = nowNs();
          (void)stagedOp(shape, request.body, op.id, untraced_cache, workspace,
                         nullptr, &unused);
          replay.untraced_ns[static_cast<std::size_t>(op.id)] = nowNs() - start;
        };
        for (std::int64_t i = 0; i < 3; ++i) {
          switch ((op.id + i) % 3) {
            case 0: twin_call(); break;
            case 1: staged_call(); break;
            default: untraced_call(); break;
          }
        }
        if (doc.has_value() == op.expect_hit) {
          mine.fail("staged op " + std::to_string(op.id) + ": unexpected cache outcome");
        } else if (doc.has_value()) {
          if (*doc != snapshot.reference) {
            mine.fail("staged op " + std::to_string(op.id) +
                      ": stages differ from RapMiner::localize");
          }
          replay.miss[static_cast<std::size_t>(op.id)] = true;
          efforts[c].push_back(std::move(effort));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t c = 0; c < plan.size(); ++c) {
    result.merge(client_results[c]);
    for (auto& effort : efforts[c]) replay.efforts.push_back(std::move(effort));
  }
  return replay;
}

/// Per-layer metrics of the traced run: client latencies from `phase`,
/// handler and stage spans from `replay`.
void addLayerMetrics(const HttpPhase& phase, const Replay& replay,
                     RunResult& result) {
  std::map<std::string, std::vector<double>> miss_ms;  // inclusive, misses
  std::map<std::string, std::vector<double>> all_ms;   // inclusive, all ops
  std::vector<double> coverage;
  std::vector<double> untraced;
  for (std::size_t op = 0; op < replay.miss.size(); ++op) {
    if (replay.miss[op]) untraced.push_back(nsToMs(replay.untraced_ns[op]));
  }
  for (const SpanLog& log : replay.logs) {
    const auto self = log.selfTimes();
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const auto op = static_cast<std::size_t>(span.op);
      const double ms = nsToMs(span.end_ns - span.start_ns);
      all_ms[span.name].push_back(ms);
      if (!replay.miss[op]) continue;
      miss_ms[span.name].push_back(ms);
      if (std::string_view(span.name) == "svc.staged") {
        coverage.push_back((ms - nsToMs(self[i])) / nsToMs(replay.handle_ns[op]));
      }
    }
  }
  std::vector<double> transport;
  for (std::size_t op = 0; op < phase.ops.size(); ++op) {
    transport.push_back(nsToMs(phase.ops[op].end_ns - phase.ops[op].start_ns -
                               replay.handle_ns[op]));
  }
  const auto med = [&](const char* name) { return median(miss_ms[name]); };
  const double handle_ms = med("svc.handle");

  result.add("obs.transport_ms", median(transport), "ms");
  result.add("obs.tracing_overhead_ms", med("svc.staged") - median(untraced), "ms");
  result.add("svc.handle_ms", handle_ms, "ms");
  result.add("svc.hash_ms", median(all_ms["svc.hash"]), "ms");
  result.add("svc.cache_get_us", median(all_ms["svc.cache"]) * 1e3, "us");
  const double lookups =
      static_cast<double>(phase.cache.hits + phase.cache.misses);
  result.add("svc.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(phase.cache.hits) / lookups : 0.0,
             "ratio");
  result.add("svc.parse_ms", med("svc.parse"), "ms");
  result.add("svc.parse_share", med("svc.parse") / handle_ms, "ratio");
  result.add("svc.span_coverage", median(coverage), "ratio");
  result.add("io.csv_parse_ms", med("io.csv_parse"), "ms");
  result.add("io.table_build_ms", med("io.table_build"), "ms");
  result.add("io.render_ms", med("io.render"), "ms");
  result.add("detect.run_ms", med("detect.run"), "ms");
  result.add("core.localize_ms", med("core.localize"), "ms");
  result.add("core.cp_ms", med("core.cp"), "ms");
  result.add("core.search_ms", med("core.search"), "ms");
  result.add("core.search_share", med("core.search") / handle_ms, "ratio");
  addSearchEffortMetrics(replay.efforts, result);
}

}  // namespace

void addSearchEffortMetrics(const std::vector<core::SearchStats>& efforts,
                            RunResult& result) {
  std::vector<double> aggregate, merge, cuboids, evaluated, pruned, found,
      kept, layers;
  double sum_found = 0.0;
  double sum_evaluated = 0.0;
  for (const core::SearchStats& stats : efforts) {
    double agg = 0.0;
    double total = 0.0;
    for (const auto& layer : stats.layers) {
      agg += layer.seconds_aggregate;
      total += layer.seconds;
    }
    aggregate.push_back(agg * 1e3);
    merge.push_back((total - agg) * 1e3);
    cuboids.push_back(static_cast<double>(stats.cuboids_visited));
    evaluated.push_back(static_cast<double>(stats.combinations_evaluated));
    pruned.push_back(static_cast<double>(stats.combinations_pruned));
    found.push_back(static_cast<double>(stats.candidates_found));
    kept.push_back(static_cast<double>(stats.kept_attributes.size()));
    layers.push_back(static_cast<double>(stats.layers.size()));
    sum_found += static_cast<double>(stats.candidates_found);
    sum_evaluated += static_cast<double>(stats.combinations_evaluated);
  }
  result.add("core.search_aggregate_ms", median(aggregate), "ms");
  result.add("core.search_merge_ms", median(merge), "ms");
  result.add("core.cuboids_visited", median(cuboids), "count");
  result.add("core.combinations_evaluated", median(evaluated), "count");
  result.add("core.combinations_pruned", median(pruned), "count");
  result.add("core.candidates_found", median(found), "count");
  result.add("core.kept_attributes", median(kept), "count");
  result.add("core.layers_visited", median(layers), "count");
  result.add("core.candidate_yield",
             sum_evaluated > 0 ? sum_found / sum_evaluated : 0.0, "ratio");
}

RunResult runSvcWorkload(const Options& options) {
  RunResult result;
  SvcShape shape = shapeFor(options.workload);
  const std::size_t budget = loadThreadBudget();
  // Each client thread holds one connection at a time.
  RAP_CHECK_MSG(2 * shape.clients <= budget,
                "client threads plus connections exceed nproc: "
                    << 2 * shape.clients << " > " << budget);
  const std::size_t min_samples =
      options.scale_down > 1 ? 8 : kMinTailSamples;
  shape.cases = std::max<std::int32_t>(
      static_cast<std::int32_t>(shape.clients),
      shape.cases / options.scale_down);
  shape.warmup = std::max(1, shape.warmup / options.scale_down);

  // Inputs and their reference documents, before anything is timed.
  const auto tables = makeCaseTables(shape.schema, options.seed, 0,
                                     shape.cases + shape.warmup,
                                     shape.label_noise);
  std::vector<Snapshot> snapshots;
  std::vector<Snapshot> warmup;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    auto& into = i < static_cast<std::size_t>(shape.cases) ? snapshots : warmup;
    into.push_back(makeSnapshot(tables[i], shape.labeled));
  }
  computeReferences(shape.schema, snapshots, shape.knobs, budget);
  computeReferences(shape.schema, warmup, shape.knobs, budget);
  if (options.corrupt_reference) snapshots[0].reference[2] ^= 0x20;

  const auto firsts = static_cast<std::size_t>(
      std::max(static_cast<double>(min_samples), options.seconds * shape.miss_rate));
  const std::size_t per_client = (firsts + shape.clients - 1) / shape.clients;
  const auto plan = planOps(shape, per_client);
  const int setup_rounds = options.scale_down > 1 ? 2 : 9;

  const HttpPhase phase = runHttpPhase(shape, snapshots, warmup, plan,
                                       setup_rounds, result);
  const auto misses = latenciesMs(phase, false);
  const auto hits = latenciesMs(phase, true);
  std::printf("samples: %zu misses, %zu hits over %.2f s\n", misses.size(),
              hits.size(), phase.wall_s);
  result.add("e2e.miss_p95_ms", segmentedP95(misses), "ms");
  result.add("e2e.hit_p95_ms", segmentedP95(hits), "ms");
  if (!options.trace) {
    const double ops = static_cast<double>(phase.ops.size());
    result.add("setup_s", phase.setup_s, "s");
    result.add("throughput_ops", phase.rate, "1/s");
    result.add("miss_p50_ms", quantile(misses, 0.5), "ms");
    result.add("hit_p50_ms", quantile(hits, 0.5), "ms");
    result.add("cpu_ms_per_op", phase.cpu_s * 1e3 / ops, "ms");
    result.add("heap_peak_mb", static_cast<double>(phase.heap_peak) / (1 << 20),
               "MiB");
    return result;
  }

  const Replay replay = runReplay(shape, snapshots, plan, result);
  addLayerMetrics(phase, replay, result);
  double handle_sum = 0.0;
  std::size_t handle_n = 0;
  for (std::size_t op = 0; op < replay.miss.size(); ++op) {
    if (replay.miss[op]) {
      handle_sum += nsToMs(replay.handle_ns[op]);
      ++handle_n;
    }
  }
  printSelfSplit(replay.logs, replay.miss,
                 handle_n > 0 ? handle_sum / static_cast<double>(handle_n) : 0.0,
                 "mean svc.handle of a miss");
  if (!options.trace_out.empty()) {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& log : replay.logs) logs.push_back(&log);
    if (!writeChromeTrace(options.trace_out, logs)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
    }
  }
  return result;
}

}  // namespace perfbench
