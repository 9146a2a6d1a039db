#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace lptsp {

namespace {

/// State of one parallel_for call, shared by the caller and its helper
/// tasks. A helper that starts after the range is used up claims no block,
/// so it never touches `fn`, which lives only as long as the caller waits.
struct Loop {
  Loop(std::size_t count_in, std::size_t block_size_in,
       const std::function<void(std::size_t)>& fn_in)
      : count(count_in),
        block_size(block_size_in),
        blocks((count_in + block_size_in - 1) / block_size_in),
        fn(&fn_in) {}

  /// Claim and run blocks until none is left.
  void run_blocks() {
    while (true) {
      const std::size_t block = next_block.fetch_add(1);
      if (block >= blocks) return;
      const std::size_t begin = block * block_size;
      const std::size_t end = std::min(count, begin + block_size);
      std::exception_ptr error;
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard lock(mutex);
      if (error && !first_error) first_error = std::move(error);
      if (++finished_blocks == blocks) all_finished.notify_all();
    }
  }

  const std::size_t count;
  const std::size_t block_size;
  const std::size_t blocks;
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next_block{0};
  std::mutex mutex;
  std::condition_variable all_finished;
  std::size_t finished_blocks = 0;  ///< guarded by mutex
  std::exception_ptr first_error;   ///< guarded by mutex
};

}  // namespace

void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads) {
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  TaskPool::shared().parallel_for(count, fn);
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
    task();  // submit()'s packaged_task and parallel_for's helpers never throw
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
    }
  }
}

void TaskPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Aim for ~4 blocks per worker so stragglers get rebalanced without
  // drowning small loops in scheduling overhead.
  const std::size_t block_size = std::max<std::size_t>(1, count / (size() * 4));
  auto loop = std::make_shared<Loop>(count, block_size, fn);
  // With the caller that makes at most size() threads on the loop.
  const std::size_t helpers = std::min<std::size_t>(size() - 1, loop->blocks - 1);
  for (std::size_t h = 0; h < helpers; ++h) enqueue([loop] { loop->run_blocks(); });
  loop->run_blocks();
  // Every block is claimed now, so this waits only on blocks that running
  // threads are executing, never on a helper still in the queue.
  std::unique_lock lock(loop->mutex);
  loop->all_finished.wait(lock, [&] { return loop->finished_blocks == loop->blocks; });
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

TaskPool& TaskPool::shared() {
  static TaskPool pool;
  return pool;
}

}  // namespace lptsp
