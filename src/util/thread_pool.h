// Minimal fixed-size thread pool plus a parallel-for helper.
//
// Runs the service's localization jobs and the stream engines'
// localizations, serves the admin server's connections, fans
// evaluation sweeps across cores, and lends idle
// workers to Algorithm 2: a search running on (or beside) a pool hands
// it helper tasks through submitToIdle, which never queues more helpers
// than there are idle workers, and waits only for helpers that started.
// So a search inside a pool task cannot deadlock a saturated pool.
//
// A pool may be shared by several owners, so it offers no "wait for
// everything": an owner that must know its own tasks finished counts
// them itself (StreamEngine's windows in flight, JobManager's jobs).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rap::util {

class ThreadPool {
 public:
  /// `threads` == 0 picks hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threadCount() const noexcept { return workers_.size(); }

  /// Enqueue a task.  Tasks must not throw (they run under noexcept
  /// workers; violate this and the process terminates, loudly).
  void submit(std::function<void()> task);

  /// Enqueues up to `max_tasks` copies of `task`, never more than the
  /// workers idle right now (threadCount() minus the tasks queued or
  /// running), and returns how many it enqueued.  Counting and enqueueing
  /// happen under one lock, so concurrent callers never oversubscribe
  /// the pool.  Returns 0 once shutdown has begun, where submit() would
  /// abort: a task that outlives the pool's teardown falls back to
  /// running its work itself.
  std::size_t submitToIdle(std::size_t max_tasks,
                           const std::function<void()>& task);

  /// Tasks submitted but not yet finished (queued + running) — the
  /// admin server's connection backlog signal.
  std::size_t inFlight() const;

 private:
  void workerLoop();

  std::vector<std::thread> workers_;
  /// FIFO of pending tasks: queue_[head_, size()).  Popped slots are
  /// reclaimed in place, so a steady submit/run rate allocates nothing.
  std::vector<std::function<void()>> queue_;
  std::size_t head_ = 0;
  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(i) for i in [0, n) across `threads` workers (0 = hardware
/// concurrency).  Blocks until every index is processed.  fn must be
/// safe to call concurrently for distinct indices.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn,
                 std::size_t threads = 0);

}  // namespace rap::util
