// Minimal work-stealing-free thread pool plus parallel_for. The experiment
// sweeps (Fig. 7 grid, Fig. 19 Monte Carlo) are embarrassingly parallel;
// cells are seeded deterministically so any thread count gives identical
// output.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace bmp::util {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1). The
  /// workers start with the first submit, so a pool that never gets work
  /// (a planner that never batches) costs no thread creation.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_; }

  /// Enqueue a task; fire-and-forget (use wait_idle to join logically).
  /// Throws std::runtime_error if the pool is shutting down.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed. If any task threw, the
  /// *first* captured exception is rethrown here (later ones are dropped);
  /// the pool stays usable afterwards.
  void wait_idle();

 private:
  void worker_loop();

  std::size_t threads_;
  std::vector<std::thread> workers_;  ///< empty until the first submit
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_exception_;
  bool stop_ = false;
};

/// Run fn(i) for i in [begin, end) across the pool, blocking until done.
/// Work is chunked to amortize queue overhead. If any fn(i) throws, the
/// remaining chunks still drain and the first exception is rethrown.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk = 0);

/// Convenience: one-shot pool with default thread count.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace bmp::util
