#include "util/thread_pool.hpp"

#include <algorithm>

namespace topkmon {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
  }
  // Clamp to at least one worker unconditionally: hardware_concurrency() may
  // legitimately report 0, and a pool with zero workers would never claim an
  // index — parallel_for would then hang instead of failing.
  threads = std::max<std::size_t>(1, threads);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    const Body* body = nullptr;
    std::size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
      count = count_;
    }
    // Every claim of this loop happens before this worker's decrement
    // below, and the caller resets next_ only once all workers decremented,
    // so no claim ever reads the next loop's counter.
    for (std::size_t i = next_.fetch_add(1); i < count; i = next_.fetch_add(1)) {
      (*body)(i);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--running_ != 0) continue;
    }
    cv_done_.notify_one();  // the last worker out wakes the caller
  }
}

void parallel_for(ThreadPool& pool, std::size_t count, const ThreadPool::Body& body) {
  if (count == 0) return;
  {
    std::lock_guard<std::mutex> lock(pool.mu_);
    pool.body_ = &body;
    pool.count_ = count;
    pool.next_.store(0);
    pool.running_ = pool.workers_.size();
    ++pool.generation_;
  }
  // Notify after unlocking, so woken workers do not block on the mutex.
  pool.cv_start_.notify_all();
  std::unique_lock<std::mutex> lock(pool.mu_);
  pool.cv_done_.wait(lock, [&pool] { return pool.running_ == 0; });
}

}  // namespace topkmon
