#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lptsp {

/// Fixed-size worker pool for data-parallel loops.
///
/// The pool is created once and reused across parallel regions; workers
/// sleep on a condition variable between regions, so an idle pool costs
/// nothing measurable. Exceptions thrown by loop bodies are captured and
/// rethrown on the calling thread (first one wins), matching the
/// Core Guidelines advice that worker threads must not let exceptions
/// escape into std::thread.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Run fn(i) for every i in [0, count), split into blocks across workers.
  /// Blocks until the whole range is processed. The body must be safe to
  /// run concurrently for distinct indices. The pool runs one region at a
  /// time: a call that finds another region in progress (a concurrent
  /// caller, or a nested call from a loop body) runs its whole range
  /// inline on the calling thread instead of waiting, so it cannot
  /// deadlock.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Run fn(block_begin, block_end) on contiguous blocks of [0, count).
  /// Lower scheduling overhead than the per-index overload for tight loops.
  void parallel_blocks(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// The process-wide shared pool (lazily constructed with hardware size).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;

  // Current parallel region; guarded by mutex_. job_ != nullptr means a
  // region is in progress and owns the fields below.
  const std::function<void(std::size_t, std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::size_t next_block_ = 0;
  std::size_t block_size_ = 1;
  std::size_t active_workers_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

/// Convenience wrapper over ThreadPool::shared().parallel_for. `threads`
/// values of 0 or 1 run inline on the calling thread (useful for
/// benchmarking serial baselines with identical code paths).
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

/// Queue-based companion to ThreadPool for heterogeneous tasks with
/// results: submit() hands back a std::future, tasks run FIFO across a
/// fixed worker set. ThreadPool's region model (one homogeneous loop at a
/// time, caller blocks) fits data-parallel kernels; the batch labeling
/// service instead needs many independent solves in flight at once, which
/// is exactly this shape. Exceptions propagate through the future.
class TaskPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit TaskPool(unsigned threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Number of worker threads (>= 1).
  [[nodiscard]] unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Block until every task submitted so far has finished (queue empty and
  /// nothing in flight). Tasks submitted while draining extend the wait.
  /// Must not be called from inside a task of this pool.
  void drain();

  /// Enqueue `fn` and return a future for its result. Safe to call from
  /// any thread, including from inside a running task (the queue is
  /// unbounded, so no deadlock — but a task blocking on a future of
  /// another queued task can still starve; the service layer never does).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// The process-wide shared task pool (lazily constructed, hardware size).
  static TaskPool& shared();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable idle_;  ///< signaled when the pool goes idle
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
};

}  // namespace lptsp
