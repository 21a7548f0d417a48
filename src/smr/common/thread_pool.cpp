#include "smr/common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "smr/common/error.hpp"

namespace smr {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  threads_ = threads;
  // A 1-thread pool is fully inline: no workers, submit() executes the
  // task on the calling thread.  This makes SMR_THREADS=1 runs exactly
  // serial (FIFO at submission), which the determinism suite relies on.
  if (threads_ <= 1) return;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SMR_CHECK(task != nullptr);
  if (workers_.empty()) {
    // Inline pool: run synchronously, in submission order, on this thread.
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SMR_CHECK(!stop_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
    ++active_;
  }
  task();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_;
    if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
  }
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void TaskGroup::submit(std::function<void()> task) {
  SMR_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
  }
  pool_->submit([this, task = std::move(task)] {
    // Catch here so neither the pool's bookkeeping (inline submit,
    // try_run_one, worker_loop) nor outstanding_ is skipped by a throw.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (error != nullptr && error_ == nullptr) error_ = std::move(error);
    if (--outstanding_ == 0) cv_done_.notify_all();
  });
}

void TaskGroup::wait() {
  drain();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(error_, nullptr);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void TaskGroup::drain() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (outstanding_ == 0) return;
    }
    // Help: run someone's queued task (possibly ours) instead of sleeping.
    // On a small pool this is what makes nested fan-out finish at all.
    if (pool_->try_run_one()) continue;
    // Queue empty but group tasks still running on other threads: sleep
    // until one of them signals.  Re-check under the lock to avoid a lost
    // wakeup between the empty-queue observation and the wait.
    std::unique_lock<std::mutex> lock(mutex_);
    if (outstanding_ == 0) return;
    cv_done_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t threads = pool.thread_count();
  const std::size_t chunks = std::min(n, threads * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;

  TaskGroup group(pool);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    group.submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  group.wait();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for(default_thread_pool(), begin, end, fn);
}

ThreadPool& default_thread_pool() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SMR_THREADS")) {
      const long value = std::strtol(env, nullptr, 10);
      if (value > 0) return static_cast<std::size_t>(value);
    }
    return static_cast<std::size_t>(0);  // hardware_concurrency
  }());
  return pool;
}

}  // namespace smr
