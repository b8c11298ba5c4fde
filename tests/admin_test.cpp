// Admin HTTP server: socket-level endpoint tests on ephemeral ports,
// plus the engine-aware /healthz and /statusz glue under concurrent
// ingest.  Every test binds port 0 so suites can run in parallel.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/admin_server.h"
#include "obs/build_info.h"
#include "obs/query_params.h"
#include "stream/admin.h"
#include "stream/engine.h"

namespace rap {
namespace {

/// Connects and sends `request` whole; returns the socket (-1 on
/// failure) with the response unread.
int sendRequest(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  return fd;
}

/// Reads the whole response from a sendRequest socket and closes it.
std::string readResponse(int fd) {
  if (fd < 0) return "";
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Minimal blocking HTTP client: one request, whole response as text.
std::string httpRequest(std::uint16_t port, const std::string& request) {
  return readResponse(sendRequest(port, request));
}

std::string httpGet(std::uint16_t port, const std::string& target) {
  return httpRequest(port, "GET " + target +
                               " HTTP/1.1\r\nHost: localhost\r\n"
                               "Connection: close\r\n\r\n");
}

int statusOf(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  const std::size_t sp = response.find(' ');
  if (sp == std::string::npos) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

std::string bodyOf(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(AdminServer, BindsEphemeralPortAndDispatchesByPath) {
  obs::AdminServer server;
  server.handle("/hello", [](const obs::HttpRequest&) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "hi\n", {}};
  });
  ASSERT_TRUE(server.start().isOk());
  ASSERT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string ok = httpGet(server.port(), "/hello");
  EXPECT_EQ(statusOf(ok), 200);
  EXPECT_EQ(bodyOf(ok), "hi\n");

  EXPECT_EQ(statusOf(httpGet(server.port(), "/nope")), 404);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.requestsServed(), 2u);
}

TEST(AdminServer, RejectsNonGetAndGarbage) {
  obs::AdminServer server;
  server.handle("/x", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start().isOk());
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "POST /x HTTP/1.1\r\n\r\n")),
            405);
  EXPECT_EQ(statusOf(httpRequest(server.port(), "garbage\r\n\r\n")), 400);
  // HEAD is served headers-only.
  const std::string head =
      httpRequest(server.port(), "HEAD /x HTTP/1.1\r\n\r\n");
  EXPECT_EQ(statusOf(head), 200);
  EXPECT_EQ(bodyOf(head), "");
}

TEST(AdminServer, HandlerExceptionBecomes500) {
  obs::AdminServer server;
  server.handle("/boom", [](const obs::HttpRequest&) -> obs::HttpResponse {
    throw std::runtime_error("kaput");
  });
  ASSERT_TRUE(server.start().isOk());
  const std::string response = httpGet(server.port(), "/boom");
  EXPECT_EQ(statusOf(response), 500);
  EXPECT_NE(bodyOf(response).find("kaput"), std::string::npos);
}

TEST(AdminServer, SecondBindOnSamePortFailsWithStatus) {
  obs::AdminServer first;
  first.handle("/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(first.start().isOk());
  obs::AdminServer::Options options;
  options.port = first.port();
  obs::AdminServer second(options);
  second.handle("/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  EXPECT_FALSE(second.start().isOk());
  EXPECT_FALSE(second.running());
}

TEST(AdminServer, ServesObsEndpointsFromIsolatedRegistry) {
  obs::MetricsRegistry registry;
  registry.counter("admin_test_total").increment(7);
  obs::TraceRecorder recorder;
  obs::TraceEvent span;
  span.name = "unit/span";
  span.ts_us = 10;
  span.dur_us = 5;
  recorder.record(span);

  obs::AdminServer server;
  obs::registerObsEndpoints(server, &registry, &recorder);
  ASSERT_TRUE(server.start().isOk());

  const std::string metrics = httpGet(server.port(), "/metrics");
  EXPECT_EQ(statusOf(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("admin_test_total 7"), std::string::npos);
  // Every scrape carries the build-identity gauge.
  EXPECT_NE(metrics.find("rap_build_info{"), std::string::npos);

  const std::string json = httpGet(server.port(), "/metrics.json");
  EXPECT_EQ(statusOf(json), 200);
  EXPECT_NE(bodyOf(json).find("\"admin_test_total\""), std::string::npos);

  const std::string tracez = httpGet(server.port(), "/tracez?limit=8");
  EXPECT_EQ(statusOf(tracez), 200);
  EXPECT_NE(bodyOf(tracez).find("\"unit/span\""), std::string::npos);

  const std::string health = httpGet(server.port(), "/healthz");
  EXPECT_EQ(statusOf(health), 200);
  EXPECT_EQ(bodyOf(health), "ok\n");
}

TEST(AdminServer, ConcurrentScrapesAllSucceed) {
  obs::MetricsRegistry registry;
  registry.counter("spam_total").increment();
  obs::AdminServer server;
  obs::registerObsEndpoints(server, &registry);
  ASSERT_TRUE(server.start().isOk());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 16;
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        if (statusOf(httpGet(server.port(), "/metrics")) == 200) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
  EXPECT_GE(server.requestsServed(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(RenderTracez, KeepsNewestEventsInTimestampOrder) {
  obs::TraceRecorder recorder;
  for (int i = 0; i < 5; ++i) {
    obs::TraceEvent event;
    event.name = i % 2 == 0 ? "even" : "odd";
    event.ts_us = static_cast<std::uint64_t>(100 - i);  // reverse order
    recorder.record(event);
  }
  const std::string doc = obs::renderTracez(recorder, 2);
  EXPECT_NE(doc.find("\"total\":5"), std::string::npos);
  // Newest two by timestamp are ts 99 ("odd") then ts 100 ("even").
  const std::size_t odd = doc.find("\"odd\"");
  const std::size_t even = doc.find("\"even\"");
  ASSERT_NE(odd, std::string::npos);
  ASSERT_NE(even, std::string::npos);
  EXPECT_LT(odd, even);
}

TEST(RenderTracez, EqualTimestampsKeepRecordingOrder) {
  // 300 events in three runs of 100 equal stamps, each tagged with its
  // recording position as flow id: the document must list 1..300 in
  // order on every render.
  obs::TraceRecorder recorder;
  constexpr std::uint64_t kEvents = 300;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    obs::TraceEvent event;
    event.name = "same_us";
    event.ts_us = 100 + i / 100;
    event.flow_id = i + 1;
    recorder.record(event);
  }
  for (int render = 0; render < 5; ++render) {
    const std::string doc = obs::renderTracez(recorder, kEvents);
    std::vector<std::uint64_t> ids;
    for (std::size_t at = doc.find("\"id\":"); at != std::string::npos;
         at = doc.find("\"id\":", at + 1)) {
      ids.push_back(std::stoull(doc.substr(at + 5)));
    }
    ASSERT_EQ(ids.size(), kEvents) << "render " << render;
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      ASSERT_EQ(ids[i], i + 1) << "render " << render << " position " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// POST routes and hostile-client hardening.

TEST(AdminServer, PostRouteReceivesBodyAndHeaders) {
  obs::AdminServer server;
  server.handlePost("/echo", [](const obs::HttpRequest& request) {
    const std::string* type = request.header("content-type");
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             (type != nullptr ? *type : "none") + "|" +
                                 request.body,
                             {}};
  });
  ASSERT_TRUE(server.start().isOk());

  const std::string response = httpRequest(
      server.port(),
      "POST /echo HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: text/csv\r\nContent-Length: 11\r\n\r\nhello,world");
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), "text/csv|hello,world");

  // GET on a POST-only route is a method mismatch.
  EXPECT_EQ(statusOf(httpGet(server.port(), "/echo")), 405);
}

TEST(AdminServer, PrefixRoutesMatchLongestRegisteredPrefix) {
  obs::AdminServer server;
  server.handlePrefix("/jobs/", [](const obs::HttpRequest& request) {
    return obs::HttpResponse{200, "text/plain; charset=utf-8",
                             "job:" + request.path, {}};
  });
  ASSERT_TRUE(server.start().isOk());
  const std::string response = httpGet(server.port(), "/jobs/42");
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), "job:/jobs/42");
  EXPECT_EQ(statusOf(httpGet(server.port(), "/jobs")), 404);
}

TEST(AdminServer, PostWithoutContentLengthIs411) {
  obs::AdminServer server;
  server.handlePost("/p", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start().isOk());
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "POST /p HTTP/1.1\r\nHost: x\r\n\r\n")),
            411);
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "POST /p HTTP/1.1\r\nHost: x\r\n"
                                 "Content-Length: banana\r\n\r\n")),
            400);
}

TEST(AdminServer, OversizedDeclaredBodyIs413) {
  obs::AdminServer::Options options;
  options.max_body_bytes = 64;
  obs::AdminServer server(options);
  server.handlePost("/p", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start().isOk());
  // The body is never sent: the declared length alone must be refused.
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "POST /p HTTP/1.1\r\nHost: x\r\n"
                                 "Content-Length: 65\r\n\r\n")),
            413);
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "POST /p HTTP/1.1\r\nHost: x\r\n"
                                 "Content-Length: 5\r\n\r\nabcde")),
            200);
}

TEST(AdminServer, OversizedHeaderSectionIs431) {
  obs::AdminServer::Options options;
  options.max_header_bytes = 256;
  obs::AdminServer server(options);
  server.handle("/x", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start().isOk());
  const std::string padding(512, 'a');
  EXPECT_EQ(statusOf(httpRequest(server.port(),
                                 "GET /x HTTP/1.1\r\nX-Pad: " + padding +
                                     "\r\n\r\n")),
            431);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/x")), 200);
}

TEST(AdminServer, BacklogFullIs503AndStopServesWhatWasAccepted) {
  std::atomic<int> entered{0};
  std::latch release(1);  // outlives the server, whose stop() needs it
  obs::AdminServer::Options options;
  options.workers = 1;
  options.backlog = 1;
  obs::AdminServer server(options);
  server.handle("/block", [&](const obs::HttpRequest&) {
    entered.fetch_add(1);
    release.wait();
    return obs::HttpResponse{200, "text/plain; charset=utf-8", "done\n", {}};
  });
  ASSERT_TRUE(server.start().isOk());
  const std::string get = "GET /block HTTP/1.1\r\nHost: x\r\n\r\n";

  // Connection 1 holds the only worker.
  const int first = sendRequest(server.port(), get);
  ASSERT_GE(first, 0);
  for (int i = 0; i < 5000 && entered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(entered.load(), 1);
  // Connection 2 fills the backlog.  The acceptor takes connections in
  // arrival order, so it is queued before connection 3 arrives; the
  // pause only lets it leave the listen queue first.
  const int second = sendRequest(server.port(), get);
  EXPECT_GE(second, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::string third = httpRequest(server.port(), get);
  EXPECT_EQ(statusOf(third), 503);
  EXPECT_NE(bodyOf(third).find("\"code\":\"overloaded\""), std::string::npos)
      << third;
  EXPECT_NE(bodyOf(third).find("connection backlog full"), std::string::npos);

  // stop() begins while connection 2 is still queued, and serves it.
  std::thread stopper([&server] { server.stop(); });
  for (int i = 0; i < 5000 && server.running(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(server.running());
  EXPECT_EQ(entered.load(), 1);  // connection 2 has not been served yet
  release.count_down();
  const std::string first_response = readResponse(first);
  const std::string second_response = readResponse(second);
  stopper.join();
  EXPECT_EQ(statusOf(first_response), 200);
  EXPECT_EQ(statusOf(second_response), 200);
  EXPECT_EQ(bodyOf(second_response), "done\n");
  EXPECT_EQ(entered.load(), 2);
}

TEST(AdminServer, StalledClientIs408NotAHungWorker) {
  obs::AdminServer::Options options;
  options.read_timeout_seconds = 0.2;
  obs::AdminServer server(options);
  server.handle("/x", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start().isOk());
  // Send half a request line and then stall; the server must time the
  // read out and answer 408 rather than wait on the socket forever.
  const std::string response =
      httpRequest(server.port(), "GET /x HT");  // no terminator, recv blocks
  EXPECT_EQ(statusOf(response), 408);
}

// ------------------------------------------------ hostile body reads

/// Connects, sends `pieces` one by one with `pause` between them
/// (TCP_NODELAY, so each piece leaves as its own segment), then reads
/// the whole response.  The write side stays open: a stalled piece
/// list stalls the request.
std::string httpPieces(std::uint16_t port,
                       const std::vector<std::string>& pieces,
                       std::chrono::milliseconds pause) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  for (std::size_t p = 0; p < pieces.size(); ++p) {
    if (p > 0) std::this_thread::sleep_for(pause);
    std::size_t sent = 0;
    while (sent < pieces[p].size()) {
      const ssize_t n = ::send(fd, pieces[p].data() + sent,
                               pieces[p].size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string postHead(std::size_t content_length) {
  return "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: " +
         std::to_string(content_length) + "\r\n\r\n";
}

/// A body of `size` bytes that no shifted or truncated copy matches.
std::string patternBody(std::size_t size) {
  std::string body(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<char>('a' + (i * 7 + i / 26) % 26);
  }
  return body;
}

/// An AdminServer whose POST /echo answers with the body it received.
class EchoServer : public ::testing::Test {
 protected:
  void SetUp() override { start(obs::AdminServer::Options{}); }

  void start(obs::AdminServer::Options options) {
    server_ = std::make_unique<obs::AdminServer>(options);
    server_->handlePost("/echo", [](const obs::HttpRequest& request) {
      return obs::HttpResponse{200, "application/octet-stream", request.body,
                               {}};
    });
    ASSERT_TRUE(server_->start().isOk());
  }

  std::uint16_t port() const { return server_->port(); }

  std::unique_ptr<obs::AdminServer> server_;
};

TEST_F(EchoServer, LargeDeclaredBodyThatStallsIs408) {
  obs::AdminServer::Options options;
  options.read_timeout_seconds = 0.2;
  start(options);
  // 8 MiB declared (the default cap), ten bytes sent, then silence: the
  // read times out instead of waiting for, or committing, 8 MiB.
  const std::string response =
      httpPieces(port(), {postHead(8u << 20) + "0123456789"},
                 std::chrono::milliseconds(0));
  EXPECT_EQ(statusOf(response), 408);
}

TEST_F(EchoServer, BodyTrickledOneByteAtATimeArrivesIntact) {
  const std::string body = patternBody(48);
  std::vector<std::string> pieces{postHead(body.size())};
  for (const char c : body) pieces.emplace_back(1, c);
  const std::string response =
      httpPieces(port(), pieces, std::chrono::milliseconds(1));
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), body);
}

TEST_F(EchoServer, HeaderAndBodyInOnePacketArriveIntact) {
  const std::string body = patternBody(3000);  // within the first read
  const std::string response = httpPieces(
      port(), {postHead(body.size()) + body}, std::chrono::milliseconds(0));
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), body);
}

TEST_F(EchoServer, BytesPastContentLengthAreNotHandedToTheHandler) {
  // Past the end of the first read, and inside it.
  for (const std::size_t size : {std::size_t{5}, std::size_t{20000}}) {
    const std::string body = patternBody(size);
    const std::string response =
        httpPieces(port(), {postHead(size) + body + "EXTRA BYTES"},
                   std::chrono::milliseconds(0));
    EXPECT_EQ(statusOf(response), 200) << size;
    EXPECT_EQ(bodyOf(response), body) << size;
  }
}

TEST_F(EchoServer, BodyInTwoHalvesWithAPauseArrivesIntact) {
  const std::string body = patternBody(200000);
  const std::string response = httpPieces(
      port(),
      {postHead(body.size()) + body.substr(0, body.size() / 2),
       body.substr(body.size() / 2)},
      std::chrono::milliseconds(50));
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response), body);
}

TEST_F(EchoServer, BodyPastTheUpfrontCommitmentArrivesIntact) {
  // Larger than the 1 MiB committed before any body byte arrives, so
  // the string grows while the bytes come in.
  const std::string body = patternBody(3u << 20);
  const std::string response = httpPieces(
      port(), {postHead(body.size()), body}, std::chrono::milliseconds(5));
  EXPECT_EQ(statusOf(response), 200);
  EXPECT_EQ(bodyOf(response).size(), body.size());
  EXPECT_TRUE(bodyOf(response) == body);
}

TEST(AdminServer, TracezRejectsGarbledLimit) {
  obs::TraceRecorder recorder;
  obs::AdminServer server;
  obs::registerObsEndpoints(server, nullptr, &recorder);
  ASSERT_TRUE(server.start().isOk());
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=abc")), 400);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=-1")), 400);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=12x")), 400);
  // The strtoll-lenient spellings the strict parser must refuse: an
  // explicit '+', percent-encoded whitespace (values are deliberately
  // not percent-decoded), and a sign with no digits.
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=+5")), 400);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=%205")), 400);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=-")), 400);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez?limit=3")), 200);
  EXPECT_EQ(statusOf(httpGet(server.port(), "/tracez")), 200);
}

TEST(HttpRequest, QueryIntStrictRejectsLenientSpellings) {
  // queryIntStrict used to call strtoll directly, which silently skips
  // leading whitespace and accepts '+'; it now routes through the one
  // shared obs::parseQueryInt, so both paths agree on what an integer is.
  obs::HttpRequest request;
  using R = obs::HttpRequest::QueryIntResult;
  std::int64_t out = 0;

  request.query = "limit=5&neg=-7&plus=+5&pad= 5&tab=\t5&empty=&dash=-"
                  "&huge=99999999999999999999&zero=0";
  EXPECT_EQ(request.queryIntStrict("limit", &out), R::kValid);
  EXPECT_EQ(out, 5);
  EXPECT_EQ(request.queryIntStrict("neg", &out), R::kValid);
  EXPECT_EQ(out, -7);
  EXPECT_EQ(request.queryIntStrict("zero", &out), R::kValid);
  EXPECT_EQ(out, 0);
  EXPECT_EQ(request.queryIntStrict("absent", &out), R::kAbsent);
  EXPECT_EQ(request.queryIntStrict("plus", &out), R::kInvalid);
  EXPECT_EQ(request.queryIntStrict("pad", &out), R::kInvalid);
  EXPECT_EQ(request.queryIntStrict("tab", &out), R::kInvalid);
  EXPECT_EQ(request.queryIntStrict("empty", &out), R::kInvalid);
  EXPECT_EQ(request.queryIntStrict("dash", &out), R::kInvalid);
  EXPECT_EQ(request.queryIntStrict("huge", &out), R::kInvalid);
}

TEST(QueryParams, ParseQueryIntIsStrict) {
  EXPECT_TRUE(obs::parseQueryInt("42").isOk());
  EXPECT_EQ(obs::parseQueryInt("42").value(), 42);
  EXPECT_EQ(obs::parseQueryInt("-42").value(), -42);
  EXPECT_EQ(obs::parseQueryInt("0").value(), 0);
  for (const char* bad : {"", "-", "+5", " 5", "5 ", "\t5", "5x", "x5",
                          "1.5", "0x10", "--3", "9223372036854775808"}) {
    EXPECT_FALSE(obs::parseQueryInt(bad).isOk()) << "'" << bad << "'";
  }
  // int64 boundaries themselves are accepted.
  EXPECT_EQ(obs::parseQueryInt("9223372036854775807").value(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(obs::parseQueryInt("-9223372036854775808").value(),
            std::numeric_limits<std::int64_t>::min());
}

// ---------------------------------------------------------------------------
// Engine-aware endpoints.

dataset::Schema adminSchema() { return dataset::Schema::synthetic({3, 2}); }

stream::StreamEvent eventAt(std::int64_t ts, dataset::ElemId a,
                            dataset::ElemId b, double v, double f) {
  stream::StreamEvent event;
  event.leaf = dataset::AttributeCombination({a, b});
  event.ts = ts;
  event.v = v;
  event.f = f;
  return event;
}

TEST(EngineAdmin, HealthzTracksEngineLifecycleAndStatuszIsLive) {
  stream::StreamConfig config;
  config.shards = 2;
  config.window_width = 10;
  config.trigger = stream::TriggerPolicy::kEveryWindow;
  stream::StreamEngine engine(adminSchema(), config);

  obs::AdminServer server;
  obs::registerObsEndpoints(server);
  stream::installEngineAdminEndpoints(server, engine);
  ASSERT_TRUE(server.start().isOk());

  // Not started yet: the readiness probe must say so.
  EXPECT_EQ(statusOf(httpGet(server.port(), "/healthz")), 503);

  engine.start();
  EXPECT_EQ(statusOf(httpGet(server.port(), "/healthz")), 200);

  // Scrape /statusz concurrently with ingest and a drain — the handler
  // may only touch thread-safe engine state.
  std::atomic<bool> scraping{true};
  std::atomic<int> scrapes_ok{0};
  std::thread scraper([&] {
    while (scraping.load()) {
      const std::string response = httpGet(server.port(), "/statusz");
      if (statusOf(response) == 200 &&
          bodyOf(response).find("\"pipeline\"") != std::string::npos) {
        scrapes_ok.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (std::int64_t ts = 0; ts < 300; ++ts) {
    engine.ingest(eventAt(ts, static_cast<dataset::ElemId>(ts % 3),
                          static_cast<dataset::ElemId>(ts % 2), 1.0, 1.0));
  }
  // Let a scrape land while the shards are still busy before draining:
  // on a loaded machine the whole ingest + drain can otherwise finish
  // before the scraper's first request does.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (scrapes_ok.load() == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.drain();
  scraping.store(false);
  scraper.join();
  EXPECT_GT(scrapes_ok.load(), 0);

  const std::string statusz = bodyOf(httpGet(server.port(), "/statusz"));
  EXPECT_NE(statusz.find("\"running\":true"), std::string::npos);
  EXPECT_NE(statusz.find("\"ingested\":300"), std::string::npos);
  EXPECT_NE(statusz.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(statusz.find("\"build\":{"), std::string::npos);
  EXPECT_NE(statusz.find("\"shard_queue_depths\":[0,0]"), std::string::npos);

  engine.stop();
  EXPECT_EQ(statusOf(httpGet(server.port(), "/healthz")), 503);
  const std::string stopped = bodyOf(httpGet(server.port(), "/statusz"));
  EXPECT_NE(stopped.find("\"running\":false"), std::string::npos);
}

TEST(EngineAdmin, RenderStatuszIsWellFormedBeforeStart) {
  stream::StreamConfig config;
  config.shards = 1;
  config.window_width = 5;
  stream::StreamEngine engine(adminSchema(), config);
  const std::string doc = stream::renderStatusz(engine, nullptr);
  // Event-time sentinels render as null, not INT64_MIN.
  EXPECT_NE(doc.find("\"watermark\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"max_event_ts\":null"), std::string::npos);
  EXPECT_NE(doc.find("\"uptime_seconds\":0.000"), std::string::npos);
  EXPECT_EQ(doc.find("\"admin\""), std::string::npos);
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
}

}  // namespace
}  // namespace rap
