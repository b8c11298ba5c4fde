#include "obs/admin_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "obs/build_info.h"
#include "obs/query_params.h"
#include "util/json_writer.h"
#include "util/logging.h"
#include "util/strings.h"

namespace rap::obs {

namespace {

const char* statusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 202:
      return "Accepted";
    case 403:
      return "Forbidden";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 409:
      return "Conflict";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 411:
      return "Length Required";
    case 413:
      return "Content Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

/// Blocking full write; sockets may accept partial writes under
/// pressure, and a scrape response must not be truncated silently.
bool writeAll(int fd, const char* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::string toLower(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

/// Receive outcome for the bounded reads below.
enum class RecvResult { kData, kClosed, kTimeout, kError };

RecvResult recvSome(int fd, std::string& out, char* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      return RecvResult::kData;
    }
    if (n == 0) return RecvResult::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvResult::kTimeout;
    return RecvResult::kError;
  }
}

/// Commits at most this much body memory before the body's bytes
/// arrive: a client that declares a large body and sends nothing must
/// not pin max_body_bytes per worker.
constexpr std::size_t kBodyUpfrontBytes = std::size_t{1} << 20;

/// Reads a declared body of `length` bytes into `*body`: the bytes that
/// arrived with the header section (raw[body_begin, ...), cut at
/// `length`), then recv straight into the string's tail, asking each
/// time for everything still missing.  The string is sized once from
/// `length` up to kBodyUpfrontBytes and doubles past that as bytes
/// arrive, never beyond `length`.  Returns kData with exactly `length`
/// bytes, or the receive outcome that cut the body short.
RecvResult readBody(int fd, const std::string& raw, std::size_t body_begin,
                    std::size_t length, std::string* body) {
  const std::size_t have = std::min(raw.size() - body_begin, length);
  body->resize(std::min(length, std::max(have, kBodyUpfrontBytes)));
  std::memcpy(body->data(), raw.data() + body_begin, have);
  std::size_t got = have;
  while (got < length) {
    if (got == body->size()) {
      body->resize(std::min(length, 2 * body->size()));
    }
    const ssize_t n = ::recv(fd, body->data() + got, body->size() - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    body->resize(got);
    if (n == 0) return RecvResult::kClosed;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return RecvResult::kTimeout;
    return RecvResult::kError;
  }
  return RecvResult::kData;
}

/// Maps the request-line method token to a route method class;
/// returns false for methods this plane refuses (405).
bool methodClass(const std::string& token, HttpMethod* out) {
  if (token == "GET" || token == "HEAD") {
    *out = HttpMethod::kGet;
    return true;
  }
  if (token == "POST") {
    *out = HttpMethod::kPost;
    return true;
  }
  if (token == "PUT") {
    *out = HttpMethod::kPut;
    return true;
  }
  if (token == "DELETE") {
    *out = HttpMethod::kDelete;
    return true;
  }
  return false;
}

}  // namespace

std::string errorEnvelope(int status, std::string_view code,
                          std::string_view message,
                          std::optional<double> retry_after_seconds) {
  util::JsonWriter w;
  w.beginObject();
  w.beginObject("error");
  w.field("code", code);
  w.field("status", status);
  w.field("message", message);
  if (retry_after_seconds) {
    w.field("retry_after_seconds", *retry_after_seconds,
            util::NumberFormat::kFixed0);
  }
  w.endObject();
  w.endObject();
  return std::move(w).str();
}

HttpResponse errorResponse(int status, std::string_view code,
                           std::string_view message) {
  return HttpResponse{status, "application/json",
                      errorEnvelope(status, code, message), {}};
}

HttpResponse jsonResponse(int status, std::string body) {
  return HttpResponse{status, "application/json; charset=utf-8",
                      std::move(body), {}};
}

const std::string* HttpRequest::header(const std::string& lower_name) const {
  for (const auto& [name, value] : headers) {
    if (name == lower_name) return &value;
  }
  return nullptr;
}

std::optional<std::string> HttpRequest::queryParam(
    const std::string& key) const {
  std::size_t pos = 0;
  while (pos < query.size()) {
    std::size_t end = query.find('&', pos);
    if (end == std::string::npos) end = query.size();
    const std::string part = query.substr(pos, end - pos);
    const std::size_t eq = part.find('=');
    if (eq != std::string::npos && part.substr(0, eq) == key) {
      return part.substr(eq + 1);
    }
    if (eq == std::string::npos && part == key) return std::string();
    pos = end + 1;
  }
  return std::nullopt;
}

HttpRequest::QueryIntResult HttpRequest::queryIntStrict(
    const std::string& key, std::int64_t* out) const {
  const auto raw = queryParam(key);
  if (!raw.has_value()) return QueryIntResult::kAbsent;
  // One strict parser for every query-int path: raw strtoll here used
  // to accept the '+5' and ' 5' spellings parseParams rejected.
  const auto parsed = parseQueryInt(*raw);
  if (!parsed.isOk()) return QueryIntResult::kInvalid;
  *out = parsed.value();
  return QueryIntResult::kValid;
}

AdminServer::AdminServer() : AdminServer(Options{}) {}

AdminServer::AdminServer(Options options) : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.backlog == 0) options_.backlog = 1;
  if (options_.max_header_bytes == 0) options_.max_header_bytes = 1024;
}

AdminServer::~AdminServer() { stop(); }

void AdminServer::handleMethod(HttpMethod method, std::string path,
                               bool prefix, Handler handler) {
  RAP_CHECK_MSG(!started_.load(), "install handlers before start()");
  RAP_CHECK(handler != nullptr);
  for (auto& route : routes_) {
    if (route.path == path && route.prefix == prefix &&
        route.method == method) {
      route.fn = std::move(handler);
      return;
    }
  }
  routes_.push_back(Route{std::move(path), prefix, method, std::move(handler)});
}

void AdminServer::handle(std::string path, Handler handler) {
  handleMethod(HttpMethod::kGet, std::move(path), /*prefix=*/false,
               std::move(handler));
}

void AdminServer::handlePost(std::string path, Handler handler) {
  handleMethod(HttpMethod::kPost, std::move(path), /*prefix=*/false,
               std::move(handler));
}

void AdminServer::handlePrefix(std::string prefix, Handler handler) {
  handleMethod(HttpMethod::kGet, std::move(prefix), /*prefix=*/true,
               std::move(handler));
}

const AdminServer::Route* AdminServer::findRoute(const std::string& path,
                                                 HttpMethod method,
                                                 bool* path_known) const {
  const Route* best = nullptr;
  for (const auto& route : routes_) {
    const bool matches =
        route.prefix ? path.compare(0, route.path.size(), route.path) == 0
                     : path == route.path;
    if (!matches) continue;
    *path_known = true;
    if (route.method != method) continue;
    if (!route.prefix) return &route;  // exact routes always win
    // Longest matching prefix wins among prefix routes.
    if (best == nullptr || route.path.size() > best->path.size()) {
      best = &route;
    }
  }
  return best;
}

util::Status AdminServer::start() {
  RAP_CHECK_MSG(!started_.load(), "admin server started twice");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return util::Status::internal(
        util::strFormat("socket(): %s", std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return util::Status::invalidArgument("bad bind address '" +
                                         options_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    return util::Status::internal(
        util::strFormat("bind(%s:%u): %s", options_.bind_address.c_str(),
                        static_cast<unsigned>(options_.port),
                        std::strerror(err)));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    return util::Status::internal(
        util::strFormat("listen(): %s", std::strerror(err)));
  }

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const int err = errno;
    ::close(fd);
    return util::Status::internal(
        util::strFormat("getsockname(): %s", std::strerror(err)));
  }

  listen_fd_ = fd;
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  pool_ = std::make_unique<util::ThreadPool>(options_.workers);
  acceptor_ = std::thread([this] { acceptLoop(); });
  started_.store(true, std::memory_order_release);
  RAP_LOG_KV(Info, {"address", options_.bind_address},
             {"port", static_cast<std::int64_t>(port())})
      << "admin server listening";
  return util::Status::ok();
}

void AdminServer::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;

  // shutdown() unblocks the acceptor's blocking accept(); close() alone
  // is not guaranteed to on Linux.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // The pool serves the connections already accepted, then joins.
  pool_.reset();
  RAP_LOG_KV(Info, {"requests", static_cast<std::int64_t>(requestsServed())})
      << "admin server stopped";
}

void AdminServer::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // shutdown() during stop() lands here (EINVAL); anything else on
      // a healthy listener is transient — bail only when stopping.
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    // Only this thread submits, so the count cannot grow between the
    // check and the submit.
    if (!stopping_.load(std::memory_order_acquire) &&
        pool_->inFlight() < options_.workers + options_.backlog) {
      pool_->submit([this, fd] {
        serveConnection(fd);
        ::close(fd);
      });
    } else {
      static const std::string kBusy = [] {
        const std::string body =
            errorEnvelope(503, "overloaded", "connection backlog full");
        return "HTTP/1.1 503 Service Unavailable\r\n"
               "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" +
               body;
      }();
      writeAll(fd, kBusy.data(), kBusy.size());
      ::close(fd);
    }
  }
}

void AdminServer::serveConnection(int fd) {
  // One request per connection: read the header section, then (for POST
  // routes) the declared body, dispatch, respond, close.
  if (options_.read_timeout_seconds > 0.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(options_.read_timeout_seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (options_.read_timeout_seconds - static_cast<double>(tv.tv_sec)) *
        1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  std::string raw;
  char buf[4096];
  std::size_t header_end = std::string::npos;
  bool timed_out = false;
  bool header_overflow = false;
  while ((header_end = raw.find("\r\n\r\n")) == std::string::npos) {
    if (raw.size() > options_.max_header_bytes) {
      header_overflow = true;
      break;
    }
    const RecvResult r = recvSome(fd, raw, buf, sizeof(buf));
    if (r == RecvResult::kTimeout) {
      timed_out = true;
      break;
    }
    if (r != RecvResult::kData) break;
  }
  // The cap applies even when the whole oversized section arrives in one
  // read — the in-loop check only sees unterminated prefixes.
  if (header_end != std::string::npos &&
      header_end > options_.max_header_bytes) {
    header_overflow = true;
    header_end = std::string::npos;  // skip parsing what we refused
  }

  HttpRequest request;
  HttpResponse response;
  bool parsed = false;
  if (header_end != std::string::npos) {
    const std::size_t line_end = raw.find("\r\n");
    const std::string line = raw.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 != std::string::npos && sp2 != std::string::npos) {
      request.method = line.substr(0, sp1);
      std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t qmark = target.find('?');
      if (qmark != std::string::npos) {
        request.query = target.substr(qmark + 1);
        target.resize(qmark);
      }
      request.path = std::move(target);
      parsed = !request.method.empty() && !request.path.empty() &&
               request.path.front() == '/';
    }
    // Header fields: "Name: value" lines between the request line and
    // the blank line.
    std::size_t pos = line_end + 2;
    while (parsed && pos < header_end) {
      std::size_t eol = raw.find("\r\n", pos);
      if (eol == std::string::npos || eol > header_end) eol = header_end;
      const std::string field = raw.substr(pos, eol - pos);
      const std::size_t colon = field.find(':');
      if (colon != std::string::npos) {
        request.headers.emplace_back(
            toLower(field.substr(0, colon)),
            std::string(util::trim(field.substr(colon + 1))));
      }
      pos = eol + 2;
    }
  }

  bool dispatch = false;
  HttpMethod method = HttpMethod::kGet;
  if (timed_out && header_end == std::string::npos) {
    response = errorResponse(408, "timeout", "request timed out");
  } else if (header_overflow) {
    response = errorResponse(431, "header_too_large",
                             "request header section too large");
  } else if (!parsed) {
    response = errorResponse(400, "bad_request", "bad request");
  } else if (!methodClass(request.method, &method)) {
    response =
        errorResponse(405, "method_not_allowed", "method not allowed");
  } else {
    dispatch = true;
  }

  const Route* route = nullptr;
  if (dispatch) {
    bool path_known = false;
    route = findRoute(request.path, method, &path_known);
    if (route == nullptr) {
      response = path_known ? errorResponse(405, "method_not_allowed",
                                            "method not allowed")
                            : errorResponse(404, "not_found", "not found");
      dispatch = false;
    } else if (method == HttpMethod::kPost || method == HttpMethod::kPut) {
      // Bounded body read: Content-Length is mandatory (no chunked
      // decoding on this plane) and capped before a byte is read.
      const std::string* declared = request.header("content-length");
      std::uint64_t content_length = 0;
      if (declared == nullptr) {
        response = errorResponse(411, "length_required",
                                 "Content-Length required");
        dispatch = false;
      } else {
        errno = 0;
        char* tail = nullptr;
        const unsigned long long v =
            std::strtoull(declared->c_str(), &tail, 10);
        if (errno != 0 || tail == declared->c_str() || *tail != '\0') {
          response =
              errorResponse(400, "bad_request", "bad Content-Length");
          dispatch = false;
        } else if (v > options_.max_body_bytes) {
          response = errorResponse(413, "body_too_large",
                                   "request body too large");
          dispatch = false;
        } else {
          content_length = v;
        }
      }
      if (dispatch) {
        const RecvResult r = readBody(fd, raw, header_end + 4,
                                      content_length, &request.body);
        if (r != RecvResult::kData) {
          response = r == RecvResult::kTimeout
                         ? errorResponse(408, "timeout", "request timed out")
                         : errorResponse(400, "bad_request",
                                         "truncated request body");
          dispatch = false;
        }
      }
    }
  }

  if (dispatch) {
    try {
      response = (route->fn)(request);
    } catch (const std::exception& e) {
      // An endpoint bug must not take down the serving plane.
      response = errorResponse(500, "internal",
                               std::string("handler error: ") + e.what());
    }
  }

  std::string head = util::strFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n",
      response.status, statusText(response.status),
      response.content_type.c_str(), response.body.size());
  for (const auto& [name, value] : response.headers) {
    head += name;
    head += ": ";
    head += value;
    head += "\r\n";
  }
  head += "Connection: close\r\n\r\n";
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (!writeAll(fd, head.data(), head.size())) return;
  if (request.method != "HEAD") {
    writeAll(fd, response.body.data(), response.body.size());
  }
}

std::string renderTracez(const TraceRecorder& recorder, std::size_t limit) {
  auto events = recorder.snapshotEvents();
  // Stable: events stamped in the same microsecond keep recording order.
  std::stable_sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const std::size_t begin = events.size() > limit ? events.size() - limit : 0;
  util::JsonWriter w;
  w.beginObject();
  w.field("total", events.size());
  w.beginArray("events");
  for (std::size_t i = begin; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    w.beginObject();
    w.field("name", event.name);
    w.field("ph", std::string_view(&event.phase, 1));
    w.field("ts_us", event.ts_us);
    if (event.phase == 'X') w.field("dur_us", event.dur_us);
    if (event.flow_id != 0) w.field("id", event.flow_id);
    w.field("tid", event.tid);
    if (!event.args_json.empty()) {
      w.key("args");
      w.embed(event.args_json);
    }
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return std::move(w).str();
}

void registerObsEndpoints(AdminServer& server, MetricsRegistry* registry,
                          TraceRecorder* recorder) {
  MetricsRegistry* metrics = registry ? registry : &defaultRegistry();
  TraceRecorder* traces = recorder ? recorder : &defaultTraceRecorder();
  registerBuildInfo(*metrics);

  server.handle("/metrics", [metrics](const HttpRequest&) {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        metrics->renderPrometheus(),
                        {}};
  });
  server.handle("/metrics.json", [metrics](const HttpRequest&) {
    return HttpResponse{200, "application/json", metrics->renderJson(), {}};
  });
  server.handle("/tracez", [traces](const HttpRequest& request) {
    // A garbled limit must not silently serve the default — the
    // operator asked for something specific and typo'd it.
    const auto params = parseParams(
        request.query,
        {{"limit", ParamSpec::Kind::kInt, 0.0, 9e18, {}}});
    if (!params.isOk()) {
      return errorResponse(400, "bad_parameter", params.status().message());
    }
    const std::int64_t limit = params.value().intOr("limit", 64);
    return HttpResponse{
        200, "application/json",
        renderTracez(*traces, static_cast<std::size_t>(limit)),
        {}};
  });
  server.handle("/healthz", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain; charset=utf-8", "ok\n", {}};
  });
}

}  // namespace rap::obs
