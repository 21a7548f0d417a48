#include "smr/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace smr {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // join in destructor
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&touched](std::size_t) { touched = true; });
  parallel_for(pool, 7, 3, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  // Sum of squares computed with 1 and with 8 threads must agree exactly
  // (each index writes its own slot; reduction is sequential).
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<double> out(10000);
    parallel_for(pool, 0, out.size(), [&out](std::size_t i) {
      out[i] = static_cast<double>(i) * static_cast<double>(i);
    });
    return std::accumulate(out.begin(), out.end(), 0.0);
  };
  EXPECT_DOUBLE_EQ(run(1), run(8));
}

TEST(ParallelFor, SmallRangeFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 3, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, DefaultPoolWorks) {
  std::atomic<int> counter{0};
  parallel_for(0, 64, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, NestedSubmitsFromTasksComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 8, [&](std::size_t) {
    // Tasks may do their own sequential work; just verify reentrancy of the
    // counter pattern under load.
    for (int j = 0; j < 100; ++j) counter.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(counter.load(), 800);
}

TEST(ThreadPool, TryRunOneDrainsQueueFromCaller) {
  // A pool with every worker kept busy by a blocking task: the caller can
  // still make progress by running queued tasks itself.  (A 1-thread pool
  // runs submit() inline nowadays, so two workers are blocked instead.)
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&started, &release] {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  // Wait until the workers own the blocking tasks; otherwise try_run_one
  // below could pick one up itself and spin on `release` forever.
  while (started.load() < 2) std::this_thread::yield();
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  while (pool.try_run_one()) {
  }
  EXPECT_EQ(ran.load(), 5);
  release.store(true);
  pool.wait_idle();
}

TEST(ThreadPool, OneThreadPoolRunsInline) {
  // satellite: SMR_THREADS=1 (or an explicit 1-thread pool) must execute
  // every task synchronously on the submitting thread, in submission order.
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  const auto self = std::this_thread::get_id();
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    pool.submit([&order, &self, i] {
      EXPECT_EQ(std::this_thread::get_id(), self);
      order.push_back(i);  // no synchronisation needed: same thread
    });
    // Inline pools run the task to completion before submit() returns.
    ASSERT_EQ(order.size(), static_cast<std::size_t>(i) + 1);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TaskGroup, InlinePoolRunsGroupTasksInSubmissionOrder) {
  // With an inline pool, TaskGroup::submit runs each task immediately, so
  // SMR_THREADS=1 runs of run_experiment (trial fan-out) and parallel_for
  // (sweep cells) execute in submission order on the calling thread.
  ThreadPool pool(1);
  TaskGroup group(pool);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    group.submit([&order, i] { order.push_back(i); });
  }
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, TryRunOneOnEmptyQueueIsFalse) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.try_run_one());
}

TEST(TaskGroup, WaitBlocksOnOwnTasksOnly) {
  ThreadPool pool(2);
  std::atomic<int> group_done{0};
  TaskGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    group.submit([&group_done] { group_done.fetch_add(1); });
  }
  group.wait();
  EXPECT_EQ(group_done.load(), 20);
}

TEST(TaskGroup, WaitOnEmptyGroupReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.wait();  // must not hang
  SUCCEED();
}

TEST(TaskGroup, DestructorWaits) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 10; ++i) {
      group.submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 10);
}

TEST(TaskGroup, NestedGroupsOnSingleThreadPoolDoNotDeadlock) {
  // The sweep shape: outer tasks each wait on an inner group running on the
  // SAME pool.  With one worker this deadlocks unless waiters help drain
  // the queue.
  ThreadPool pool(1);
  std::atomic<int> inner_done{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 4; ++i) {
    outer.submit([&pool, &inner_done] {
      TaskGroup inner(pool);
      for (int j = 0; j < 3; ++j) {
        inner.submit([&inner_done] { inner_done.fetch_add(1); });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_done.load(), 12);
}

TEST(ParallelFor, NestedParallelForOnSamePoolCompletes) {
  // Regression for the sweep runner: run_sweep fans cells out with
  // parallel_for and each cell fans its trials out on the same pool.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::vector<int> out(6 * 5, 0);
    parallel_for(pool, 0, 6, [&](std::size_t cell) {
      parallel_for(pool, 0, 5, [&, cell](std::size_t trial) {
        out[cell * 5 + trial] = static_cast<int>(cell * 5 + trial);
      });
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i)) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace smr
