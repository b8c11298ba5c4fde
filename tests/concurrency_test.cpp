#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "eval/runner.h"
#include "gen/rapmd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace rap {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(4);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    util::ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(500);
  util::parallelFor(hits.size(),
                    [&hits](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndSingleElement) {
  int calls = 0;
  util::parallelFor(0, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  util::parallelFor(1, [&calls](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SingleThreadIsSerial) {
  std::vector<std::size_t> order;
  util::parallelFor(10, [&order](std::size_t i) { order.push_back(i); }, 1);
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Logging, ConcurrentStatementsNeverInterleave) {
  // Each LogMessage flushes its whole line with a single fwrite, so a
  // file written to by many threads must contain only complete lines.
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  util::setLogStream(capture);
  const util::LogLevel before = util::logLevel();
  util::setLogLevel(util::LogLevel::kInfo);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        RAP_LOG_KV(Info, {"thread", t}, {"i", i})
            << "BEGIN payload-" << t << "-" << i << " END";
      }
    });
  }
  for (auto& t : threads) t.join();
  util::setLogLevel(before);
  util::setLogStream(nullptr);

  std::fflush(capture);
  std::rewind(capture);
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), capture)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(capture);

  // Every line carries exactly one statement: one BEGIN, one END, the
  // END before the newline, and the total matches what was logged.
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  int lines = 0;
  std::size_t start = 0;
  while (start < contents.size()) {
    std::size_t end = contents.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    const std::string line = contents.substr(start, end - start);
    EXPECT_EQ(line.find("BEGIN"), line.rfind("BEGIN")) << line;
    EXPECT_NE(line.find("BEGIN"), std::string::npos) << line;
    EXPECT_NE(line.find(" END"), std::string::npos) << line;
    EXPECT_NE(line.find("thread="), std::string::npos) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, kThreads * kPerThread);
}

TEST(ParallelRunner, MatchesSerialResults) {
  gen::RapmdConfig config;
  config.num_cases = 8;
  gen::RapmdGenerator generator(dataset::Schema::cdn(), config, 321);
  const auto cases = generator.generate();
  const auto localizer = eval::rapminerLocalizer({});

  const auto serial = eval::runLocalizer(localizer, cases, {.k = 5});
  const auto parallel =
      eval::runLocalizerParallel(localizer, cases, {.k = 5}, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].case_id, parallel[i].case_id);
    ASSERT_EQ(serial[i].predictions.size(), parallel[i].predictions.size());
    for (std::size_t j = 0; j < serial[i].predictions.size(); ++j) {
      EXPECT_EQ(serial[i].predictions[j].ac, parallel[i].predictions[j].ac);
    }
  }
  EXPECT_DOUBLE_EQ(eval::aggregateRecallAtK(serial, cases, 3),
                   eval::aggregateRecallAtK(parallel, cases, 3));
}

}  // namespace
}  // namespace rap
