// Fork-join thread pool: a fixed team of workers that runs one indexed loop
// at a time.
//
// parallel_for publishes the loop body and index count, wakes the team, and
// blocks until every worker has finished. Workers claim indices one at a time
// from a single shared atomic counter, so skewed per-index costs rebalance on
// their own: a worker busy on a slow index holds no other index. Starting a
// loop allocates nothing, which keeps the engine's threaded step alloc-free.
//
// Callers (the engine's per-step shard advance, the sweep runner's
// (cell × trial) grid) derive every index's randomness from the index itself,
// so results are deterministic regardless of which worker runs what.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace topkmon {

class ThreadPool {
 public:
  using Body = std::function<void(std::size_t)>;

  /// Spawns `threads` workers (0 = hardware concurrency). The worker count
  /// is clamped to ≥ 1 in every case — a zero-worker pool would never finish
  /// a loop — so thread_count() ≥ 1 always holds.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size(); }

 private:
  friend void parallel_for(ThreadPool& pool, std::size_t count, const Body& body);

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const Body* body_ = nullptr;    ///< current loop; guarded by mu_
  std::size_t count_ = 0;         ///< current loop's index count; guarded by mu_
  std::uint64_t generation_ = 0;  ///< bumped once per loop; guarded by mu_
  std::size_t running_ = 0;       ///< workers not yet done; guarded by mu_
  bool stop_ = false;             ///< guarded by mu_
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::vector<std::thread> workers_;  ///< last: the workers use every member above
};

/// Runs body(i) for every i in [0, count) exactly once, on the pool's
/// workers; blocks until all have run. `body` must not throw. One loop at a
/// time per pool: do not call concurrently or from inside `body`.
void parallel_for(ThreadPool& pool, std::size_t count, const ThreadPool::Body& body);

}  // namespace topkmon
