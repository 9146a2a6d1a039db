#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace lptsp {

/// Fixed-size worker pool: one FIFO queue of tasks over a fixed worker set.
///
/// submit() runs heterogeneous tasks with results (the batch labeling
/// service keeps many independent solves in flight at once), and
/// parallel_for() splits a data-parallel loop across the same workers with
/// the caller helping. Workers sleep on a condition variable while the
/// queue is empty, so an idle pool costs nothing measurable.
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
  /// Exceptions propagate through the future.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Run fn(i) for every i in [0, count) exactly once, split into blocks.
  /// The caller queues up to size() - 1 helper tasks and then claims blocks
  /// itself, so it never waits on a block nobody has started: concurrent
  /// callers, nested calls from a loop body and calls from inside a task
  /// of this pool all complete. The body must be safe to run concurrently
  /// for distinct indices. The first exception a body throws is rethrown
  /// here once every claimed block has finished.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// The process-wide shared pool (lazily constructed, hardware size).
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

/// Run fn(i) for every i in [0, count). `threads == 1` runs serially on the
/// calling thread (serial baselines share the code path); every other
/// value, 0 included, uses TaskPool::shared(), which has
/// hardware_concurrency() workers whatever the value asked for.
void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn,
                  unsigned threads = 0);

}  // namespace lptsp
