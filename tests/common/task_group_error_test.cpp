// A task that throws inside a TaskGroup (here through parallel_for) must
// neither hang the waiter nor terminate the process: the group keeps the
// first exception, wait() rethrows it once the group has drained, and the
// pool stays usable.  These tests run under a short ctest TIMEOUT, so a
// hang fails instead of stalling the suite.
#include "smr/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace smr {
namespace {

void expect_rethrow_then_reuse(std::size_t threads) {
  ThreadPool pool(threads);
  std::atomic<int> ran{0};
  try {
    parallel_for(pool, 0, 4, [&ran](std::size_t i) {
      if (i == 1) throw std::runtime_error("iteration 1");
      ran.fetch_add(1);
    });
    ADD_FAILURE() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "iteration 1");
  }
  EXPECT_EQ(ran.load(), 3);

  std::vector<int> out(64, 0);
  parallel_for(pool, 0, out.size(),
               [&out](std::size_t i) { out[i] = static_cast<int>(i); });
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i)) << "threads=" << threads;
  }
}

TEST(TaskGroup, ThrowingParallelForRethrowsOnInlinePool) {
  expect_rethrow_then_reuse(1);
}

TEST(TaskGroup, ThrowingParallelForRethrowsOnWorkerPool) {
  expect_rethrow_then_reuse(4);
}

TEST(TaskGroup, HelpWaitRunsThrowingTaskAndPoolGoesIdle) {
  // Both workers are held busy, so the waiting thread runs the throwing
  // group task itself through try_run_one().
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&started, &release] {
      started.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  while (started.load() < 2) std::this_thread::yield();
  TaskGroup group(pool);
  group.submit([] { throw std::runtime_error("helped"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  release.store(true);
  pool.wait_idle();  // hangs if the throw left the pool's active count raised
}

TEST(TaskGroup, WaitRethrowsOnlyTheFirstExceptionAndOnlyOnce) {
  ThreadPool pool(1);  // inline: tasks finish in submission order
  TaskGroup group(pool);
  group.submit([] { throw std::runtime_error("first"); });
  group.submit([] { throw std::logic_error("second"); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  group.wait();  // the error was consumed; the group is reusable
  int ran = 0;
  group.submit([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace smr
