#include "exec/thread_pool.h"

#include <utility>

namespace dlpsim::exec {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    task_ready_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      // stop_ set and nothing left to drain.
      return;
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    --active_;
    if (queue_.empty() && active_ == 0) all_idle_.notify_all();
  }
}

}  // namespace dlpsim::exec
