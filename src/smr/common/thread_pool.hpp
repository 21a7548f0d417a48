// A small work-stealing-free thread pool plus TaskGroup and parallel_for.
//
// The simulator itself is single-threaded and deterministic; the pool exists
// so that benches and sweeps can run *independent* simulations concurrently
// (one simulation per task).  parallel_for partitions an index range into
// contiguous chunks, which keeps per-simulation memory locality and gives
// deterministic results regardless of thread count because the tasks do not
// share mutable state.
//
// Nesting: a task running on the pool may itself fan out through TaskGroup
// or parallel_for on the *same* pool.  The waiting task helps — it drains
// queued pool work via try_run_one() instead of sleeping — so nested waits
// cannot deadlock even on a single-threaded pool.
//
// Exceptions: a task submitted through TaskGroup (and so parallel_for) may
// throw; the group captures the first exception and wait() rethrows it on
// the waiting thread once every task of the group has finished.  Raw
// ThreadPool::submit tasks must not throw.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace smr {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).  A pool of one
  /// thread spawns *no* workers: it runs every task inline on the submitting
  /// thread (see submit()), so a 1-thread pool is exactly serial execution.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_; }

  /// Enqueue a task.  Tasks must not throw: on a worker thread an escaping
  /// exception terminates the process (same policy as std::thread), and
  /// through try_run_one() it leaves the pool's active count raised.  Use
  /// TaskGroup for tasks that may throw.  On an inline pool the task runs
  /// to completion before submit() returns.
  void submit(std::function<void()> task);

  /// Pop and run one queued task on the calling thread.  Returns false if
  /// the queue was empty.  This is the help-wait primitive: a thread
  /// blocked on a TaskGroup keeps the pool moving instead of sleeping.
  bool try_run_one();

  /// Block until every submitted task has finished.
  void wait_idle();

 private:
  void worker_loop();

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// A group of tasks whose completion can be awaited independently of the
/// rest of the pool.  Unlike ThreadPool::wait_idle(), wait() only blocks on
/// *this group's* tasks, and the waiting thread helps run pool work while
/// it waits — safe to use from inside another pool task (nested fan-out).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}
  /// Waits for the group's tasks; an exception no wait() rethrew is dropped.
  ~TaskGroup() { drain(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue a task belonging to this group.  The task may throw: the
  /// group keeps the first exception and the pool never sees it.
  void submit(std::function<void()> task);

  /// Block until every task submitted to this group has finished, then
  /// rethrow the first exception a task threw (if any; once).  Runs queued
  /// pool tasks on the calling thread while waiting.
  void wait();

 private:
  /// wait() without the rethrow.
  void drain();

  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable cv_done_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

/// Run `fn(i)` for every i in [begin, end) using `pool`, blocking until all
/// iterations complete.  Iterations must be independent.  Safe to call from
/// inside a pool task (the wait helps drain the queue).  If `fn` throws,
/// the rest of that chunk is skipped, the other chunks still run, and the
/// first exception is rethrown here.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Convenience: run with a process-wide default pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// The process-wide default pool (lazily constructed).  Honours the
/// SMR_THREADS environment variable (positive integer) on first use;
/// unset or invalid falls back to hardware_concurrency.
ThreadPool& default_thread_pool();

}  // namespace smr
