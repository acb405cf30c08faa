#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace topkmon {
namespace {

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  parallel_for(pool, 100, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, [&counter](std::size_t) { counter.fetch_add(1); });  // must not hang
  EXPECT_EQ(counter.load(), 0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, CoversAllIndicesExactlyOnce) {
  for (const std::size_t threads : {1ul, 2ul, 3ul, 8ul}) {
    for (const std::size_t count : {0ul, 1ul, 2ul, 7ul, 64ul, 1000ul}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(count);
      parallel_for(pool, count, [&](std::size_t i) { hits[i].fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
      }
    }
  }
}

TEST(ThreadPool, RebalancesSkewedTasks) {
  // One pathologically slow index first: the worker stuck on it holds no
  // other index, so the remaining ones must all run on the other workers and
  // the loop must terminate.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  parallel_for(pool, 64, [&](std::size_t i) {
    if (i == 0) {
      // Busy-wait until the others prove they are running concurrently, or
      // enough iterations pass that single-threaded execution also finishes.
      for (int spin = 0; spin < 1000000 && done.load() < 32; ++spin) {
      }
    }
    done.fetch_add(1);
  });
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPool, ReusableAcrossLargeBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    parallel_for(pool, 100, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 5; ++batch) {
    parallel_for(pool, 20, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  parallel_for(pool, 10, [&order](std::size_t i) { order.push_back(static_cast<int>(i)); });
  // A single worker claims the shared counter in ascending order.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

// threads=0 means "hardware concurrency", which the standard allows to
// report 0; the pool must clamp to >= 1 worker in every case — a zero-worker
// pool would never claim an index and parallel_for would hang.
TEST(ThreadPool, ZeroThreadRequestClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  std::atomic<int> counter{0};
  parallel_for(pool, 10, [&counter](std::size_t) { counter.fetch_add(1); });  // must not hang
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DefaultSizedPool) {
  ThreadPool pool;
  std::atomic<int> counter{0};
  parallel_for(pool, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

}  // namespace
}  // namespace topkmon
