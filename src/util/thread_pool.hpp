// Work-stealing thread pool for coarse-grained index tasks.
//
// Built for the tuner's sweep: a parallel_for over (configuration) indices
// whose tasks each run a whole simulated job (milliseconds to seconds), so
// queue operations are far off the critical path and a mutex per deque is
// plenty.  Indices are dealt round-robin to per-worker deques; a worker pops
// its own queue from the front and steals from a victim's back when empty,
// so imbalanced tasks migrate to idle workers.
//
// The calling thread participates as worker 0, so ThreadPool(n) gives
// exactly n concurrent executors while parallel_for runs.  Exceptions from
// tasks are captured and the first one is rethrown on the caller once all
// tasks finished.  Nested parallel_for is not supported.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace critter::util {

class ThreadPool {
 public:
  /// Spawns `threads - 1` OS threads (the caller is the remaining worker).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(queues_.size()); }

  /// Threads worth running `logical` workers on: at most the hardware
  /// concurrency, at least one.  Sweep and shard results never depend on
  /// the pool size (they are pure functions of their batch and round
  /// schedules), so oversubscribing buys nothing but scheduler churn.
  static int threads_for(int logical);

  /// Run fn(0) .. fn(n-1) across the pool; returns when all completed.
  void parallel_for(int n, const std::function<void(int)>& fn);

 private:
  struct Queue {
    std::mutex m;
    std::deque<int> d;
  };

  void worker_loop(int self);
  bool try_get(int self, int* out);
  void run_task(int idx);

  std::vector<std::thread> threads_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::mutex m_;
  std::condition_variable work_cv_, done_cv_;
  std::atomic<const std::function<void(int)>*> fn_{nullptr};
  int pending_ = 0;
  std::uint64_t job_id_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

}  // namespace critter::util
