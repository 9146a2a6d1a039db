#include "util/thread_pool.hpp"

#include <algorithm>

namespace lptsp {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    std::unique_lock lock(mutex_);
    work_ready_.wait(lock, [&] { return stopping_ || (job_ != nullptr && generation_ != seen_generation); });
    if (stopping_) return;
    seen_generation = generation_;
    ++active_workers_;
    const auto* job = job_;
    while (true) {
      const std::size_t begin = next_block_;
      if (begin >= job_count_) break;
      const std::size_t end = std::min(job_count_, begin + block_size_);
      next_block_ = end;
      lock.unlock();
      try {
        (*job)(begin, end);
      } catch (...) {
        lock.lock();
        if (!first_error_) first_error_ = std::current_exception();
        continue;
      }
      lock.lock();
    }
    --active_workers_;
    if (active_workers_ == 0 && next_block_ >= job_count_) work_done_.notify_all();
  }
}

void ThreadPool::parallel_blocks(std::size_t count,
                                 const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.size() <= 1) {
    fn(0, count);
    return;
  }
  std::unique_lock lock(mutex_);
  if (job_ != nullptr) {
    // Another region owns the pool; overwriting job_ would hand its
    // workers this region's indices.
    lock.unlock();
    fn(0, count);
    return;
  }
  job_ = &fn;
  job_count_ = count;
  next_block_ = 0;
  // Aim for ~4 blocks per worker so stragglers get rebalanced without
  // drowning small loops in scheduling overhead.
  block_size_ = std::max<std::size_t>(1, count / (workers_.size() * 4));
  first_error_ = nullptr;
  ++generation_;
  work_ready_.notify_all();
  work_done_.wait(lock, [&] { return active_workers_ == 0 && next_block_ >= job_count_; });
  job_ = nullptr;
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_blocks(count, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (threads == 1 || ThreadPool::shared().size() == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool::shared().parallel_for(count, fn);
}

TaskPool::TaskPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void TaskPool::drain() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && in_flight_ == 0; });
}

void TaskPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void TaskPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();  // packaged_task captures exceptions into the future
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

TaskPool& TaskPool::shared() {
  static TaskPool pool;
  return pool;
}

}  // namespace lptsp
