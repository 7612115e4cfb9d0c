#include "bmp/util/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace bmp::util {

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(threads != 0 ? threads
                            : std::max<std::size_t>(
                                  1, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) {
      throw std::runtime_error("ThreadPool::submit: pool is stopped");
    }
    if (workers_.empty()) {
      // The new workers block on mutex_ until this submit releases it.
      workers_.reserve(threads_);
      for (std::size_t i = 0; i < threads_; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    }
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_exception_) {
    std::exception_ptr rethrown = std::exchange(first_exception_, nullptr);
    lock.unlock();
    std::rethrow_exception(rethrown);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error && !first_exception_) first_exception_ = error;
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  if (chunk == 0) {
    chunk = std::max<std::size_t>(1, total / (pool.size() * 8));
  }
  // Completion and exceptions are tracked per-call, not in the pool:
  // concurrent parallel_for calls sharing one pool must each join (only)
  // their own chunks and see (only) their own failures — wait_idle would
  // both over-wait and rethrow stale exceptions from unrelated submits.
  std::mutex state_mutex;
  std::condition_variable done_cv;
  std::size_t pending = (total + chunk - 1) / chunk;
  std::exception_ptr first_exception;
  for (std::size_t lo = begin; lo < end; lo += chunk) {
    const std::size_t hi = std::min(lo + chunk, end);
    pool.submit([lo, hi, &fn, &state_mutex, &done_cv, &pending,
                 &first_exception] {
      std::exception_ptr error;
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(state_mutex);
      if (error && !first_exception) first_exception = error;
      if (--pending == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(state_mutex);
  done_cv.wait(lock, [&] { return pending == 0; });
  if (first_exception) std::rethrow_exception(first_exception);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool pool;
  parallel_for(pool, begin, end, fn);
}

}  // namespace bmp::util
