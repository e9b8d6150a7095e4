#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace critter::util {

ThreadPool::ThreadPool(int threads) {
  CRITTER_CHECK(threads >= 1, "thread pool needs at least one worker");
  queues_.reserve(threads);
  for (int i = 0; i < threads; ++i) queues_.push_back(std::make_unique<Queue>());
  threads_.reserve(threads - 1);
  for (int i = 1; i < threads; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

int ThreadPool::threads_for(int logical) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw > 0 ? std::min(logical, hw) : logical);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::try_get(int self, int* out) {
  {
    Queue& own = *queues_[self];
    std::lock_guard<std::mutex> lk(own.m);
    if (!own.d.empty()) {
      *out = own.d.front();
      own.d.pop_front();
      return true;
    }
  }
  // Steal from a victim's back (the opposite end its owner pops from).
  const int w = size();
  for (int k = 1; k < w; ++k) {
    Queue& victim = *queues_[(self + k) % w];
    std::lock_guard<std::mutex> lk(victim.m);
    if (!victim.d.empty()) {
      *out = victim.d.back();
      victim.d.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::run_task(int idx) {
  // fn_ is stored (under m_) before any task of its job is enqueued, so a
  // worker that popped an index observes the matching function.
  const std::function<void(int)>& fn = *fn_.load(std::memory_order_acquire);
  try {
    fn(idx);
  } catch (...) {
    std::lock_guard<std::mutex> lk(m_);
    if (!error_) error_ = std::current_exception();
  }
  std::lock_guard<std::mutex> lk(m_);
  if (--pending_ == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop(int self) {
  std::uint64_t seen_job = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [&] { return stop_ || job_id_ != seen_job; });
      if (stop_) return;
      seen_job = job_id_;
    }
    int idx;
    while (try_get(self, &idx)) run_task(idx);
  }
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  {
    std::lock_guard<std::mutex> lk(m_);
    CRITTER_CHECK(pending_ == 0, "nested parallel_for is not supported");
    fn_.store(&fn, std::memory_order_release);
    pending_ = n;
    error_ = nullptr;
    for (int i = 0; i < n; ++i) {
      Queue& q = *queues_[i % queues_.size()];
      std::lock_guard<std::mutex> ql(q.m);
      q.d.push_back(i);
    }
    ++job_id_;
  }
  work_cv_.notify_all();

  // The caller is worker 0.
  int idx;
  while (try_get(0, &idx)) run_task(idx);

  std::unique_lock<std::mutex> lk(m_);
  done_cv_.wait(lk, [&] { return pending_ == 0; });
  fn_.store(nullptr, std::memory_order_release);
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace critter::util
