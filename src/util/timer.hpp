#pragma once

#include <atomic>
#include <chrono>

namespace lptsp {

/// Monotonic wall-clock stopwatch used by benchmarks and solver statistics.
class Timer {
 public:
  Timer() noexcept : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() noexcept { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Milliseconds elapsed since construction or the last reset().
  [[nodiscard]] double millis() const noexcept { return seconds() * 1e3; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// The stop test racing engines poll: `cancel` is set, or `deadline` has
/// passed. A max() deadline means none and costs no clock read.
[[nodiscard]] inline bool stop_requested(const std::atomic<bool>* cancel,
                                         std::chrono::steady_clock::time_point deadline) noexcept {
  return (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
         (deadline != std::chrono::steady_clock::time_point::max() &&
          std::chrono::steady_clock::now() >= deadline);
}

}  // namespace lptsp
