// Embedded admin + service HTTP server — the live network surface of
// the process.
//
// A dependency-free HTTP/1.1 server on POSIX sockets: one blocking
// accept loop hands each accepted connection to the server's own
// util::ThreadPool, whose workers serve requests against a route
// table.  Built for operational scraping (Prometheus, curl, health
// probes) and for the bounded request/response API of the localization
// service (src/svc), not for general traffic: responses always close
// the connection and the whole exchange is one request per connection.
//
//   obs::AdminServer server({.port = 0});         // 0 = ephemeral
//   obs::registerObsEndpoints(server);            // /metrics, /tracez, ...
//   RAP_CHECK(server.start().isOk());
//   ... server.port() is the bound port ...
//   server.stop();                                // graceful, idempotent
//
// Hostile-client hardening (every limit maps to an HTTP status instead
// of a hung or memory-exhausted worker):
//   * per-connection read timeout (SO_RCVTIMEO) — a client that stops
//     sending mid-request gets 408 and the worker moves on;
//   * max_header_bytes — an unterminated header section gets 431;
//   * max_body_bytes — an oversized declared body gets 413 before the
//     body is read;
//   * POST without Content-Length gets 411 (chunked uploads are not
//     accepted on this plane);
//   * the body is received straight into HttpRequest::body, sized from
//     Content-Length but committing at most 1 MiB before body bytes
//     arrive (then doubling as they do), so a client that declares
//     8 MiB and sends nothing pins no 8 MiB; bytes past Content-Length
//     are never read.
//
// Threading: handlers run on the pool's workers, concurrently with each
// other and with the rest of the process — they must only touch
// thread-safe state (the metrics registry, the trace recorder, the
// StreamEngine accessors and the svc::JobManager all qualify).
// start()/stop() are control-plane calls from one thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace rap::obs {

/// One parsed request.  Header names are lowercased at parse time;
/// bodies are only read for routes registered via handlePost.
struct HttpRequest {
  std::string method;  ///< "GET", uppercased as received
  std::string path;    ///< "/metrics" — target with the query stripped
  std::string query;   ///< "limit=32" — text after '?', possibly empty
  /// Header fields in arrival order, names lowercased, values trimmed.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;  ///< POST payload (empty for GET/HEAD)

  /// First header with the given lowercase name, or nullptr.
  const std::string* header(const std::string& lower_name) const;

  /// Raw (undecoded) value of query parameter `key`; nullopt when the
  /// key is absent.  Admin parameters are numbers and short tokens, so
  /// percent-decoding is intentionally not performed.
  std::optional<std::string> queryParam(const std::string& key) const;

  /// Strict integer parse for endpoints that must reject garbage with
  /// 400 instead of silently falling back (the /tracez contract).
  enum class QueryIntResult { kAbsent, kValid, kInvalid };
  QueryIntResult queryIntStrict(const std::string& key,
                                std::int64_t* out) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers (e.g. {"Retry-After", "1"}); Content-Type,
  /// Content-Length and Connection are always emitted by the server.
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Method classes routes are registered under.  HEAD dispatches to the
/// kGet handler (the server suppresses the body).
enum class HttpMethod : std::uint8_t { kGet, kPost, kPut, kDelete };

/// Canonical JSON error body shared by the server core and every API
/// handler:
///   {"error":{"code":"not_found","status":404,"message":"..."}}
/// A `retry_after_seconds` hint, when given, is one more member of the
/// error object, in whole seconds.
std::string errorEnvelope(
    int status, std::string_view code, std::string_view message,
    std::optional<double> retry_after_seconds = std::nullopt);

/// errorEnvelope wrapped in an application/json HttpResponse.
HttpResponse errorResponse(int status, std::string_view code,
                           std::string_view message);

/// `body`, a JSON document, as an HttpResponse typed
/// "application/json; charset=utf-8" (the API documents).
HttpResponse jsonResponse(int status, std::string body);

class AdminServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// Loopback by default: the admin plane is an operator surface, not
    /// a public one.  Set to "0.0.0.0" to expose deliberately.
    std::string bind_address = "127.0.0.1";
    /// TCP port; 0 binds an ephemeral port (tests), read it back with
    /// port() after start().
    std::uint16_t port = 0;
    /// Worker threads serving accepted connections (0 is read as 1).
    std::size_t workers = 2;
    /// Accepted connections waiting for a worker before new arrivals
    /// are turned away with 503: a connection is admitted while fewer
    /// than workers + backlog are being served or queued.
    std::size_t backlog = 64;
    /// Per-connection socket read timeout in seconds (SO_RCVTIMEO); a
    /// stalled client gets 408 instead of pinning a worker.  0 disables.
    double read_timeout_seconds = 10.0;
    /// Upper bound on the request line + header section -> 431.
    std::size_t max_header_bytes = 8192;
    /// Upper bound on a declared POST body -> 413.
    std::size_t max_body_bytes = 8u << 20;
  };

  /// Default options: loopback, ephemeral port.  (Separate constructor
  /// because a `= {}` default argument would need the nested class's
  /// member initializers before the enclosing class is complete.)
  AdminServer();
  explicit AdminServer(Options options);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  /// Installs (or replaces) the GET/HEAD handler for an exact path.
  /// Handlers must be installed before start().
  void handle(std::string path, Handler handler);

  /// Installs (or replaces) the POST handler for an exact path.  The
  /// body is read (subject to max_body_bytes) before dispatch.  A path
  /// may carry one handler per method class.
  void handlePost(std::string path, Handler handler);

  /// Installs a GET/HEAD handler for every path starting with `prefix`
  /// (e.g. "/api/v1/jobs/").  Exact routes win over prefix routes; the
  /// longest matching prefix wins among prefix routes.
  void handlePrefix(std::string prefix, Handler handler);

  /// Fully general registration: exact or prefix route for any method
  /// class.  PUT routes read a bounded body exactly like POST; DELETE
  /// requests carry no body on this plane.
  void handleMethod(HttpMethod method, std::string path, bool prefix,
                    Handler handler);

  /// Binds, listens, and spawns the accept loop + workers.  Fails with
  /// a Status (never a crash) when the address or port is unavailable.
  util::Status start();

  /// Graceful shutdown: stops accepting, serves connections already
  /// accepted, then joins every thread.  Idempotent; also run by the
  /// destructor.
  void stop();

  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stopping_.load(std::memory_order_acquire);
  }

  /// Port actually bound (resolves ephemeral port 0); 0 before start().
  std::uint16_t port() const noexcept {
    return port_.load(std::memory_order_acquire);
  }

  /// Requests served so far (any status), for tests and /statusz.
  std::uint64_t requestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::string path;
    bool prefix = false;  ///< prefix match instead of exact
    HttpMethod method = HttpMethod::kGet;
    Handler fn;
  };

  void acceptLoop();
  void serveConnection(int fd);
  /// Longest match for (path, method); sets `path_known` when the path
  /// matches a route of another method class (405 material).
  const Route* findRoute(const std::string& path, HttpMethod method,
                         bool* path_known) const;

  Options options_;
  std::vector<Route> routes_;

  int listen_fd_ = -1;
  std::atomic<std::uint16_t> port_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};

  std::thread acceptor_;
  /// Serves accepted connections; exists from start() to stop().
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Installs the obs-backed endpoints on `server`:
///   /metrics       Prometheus text exposition of `registry`
///   /metrics.json  the same snapshot as JSON
///   /tracez        recent trace events as JSON (?limit=N, default 64;
///                  a non-numeric or negative limit is a 400)
///   /healthz       plain "ok" liveness (override with a richer probe)
/// Also registers the rap_build_info gauge so every scrape identifies
/// the binary.  Defaults target the process-wide registry/recorder.
void registerObsEndpoints(AdminServer& server,
                          MetricsRegistry* registry = nullptr,
                          TraceRecorder* recorder = nullptr);

/// Renders the /tracez JSON document from `recorder` (the newest
/// `limit` events, ordered oldest first).  Exposed for tests.
std::string renderTracez(const TraceRecorder& recorder, std::size_t limit);

}  // namespace rap::obs
