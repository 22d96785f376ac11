#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

namespace ffp {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(1);
  EXPECT_NO_THROW(pool.wait_idle());
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, ComputesAllIndices) {
  ThreadPool pool(4);
  std::vector<int> out(200, 0);
  parallel_for(pool, 200, [&out](std::int64_t i) {
    out[static_cast<std::size_t>(i)] = static_cast<int>(i * 2);
  });
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 2);
  }
}

TEST(ParallelFor, ZeroIterations) {
  ThreadPool pool(2);
  int touched = 0;
  parallel_for(pool, 0, [&touched](std::int64_t) { ++touched; });
  EXPECT_EQ(touched, 0);
}

}  // namespace
}  // namespace ffp
