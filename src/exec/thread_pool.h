// Fixed-size worker pool for the experiment executor (src/exec/).
//
// The pool is deliberately minimal: a FIFO task queue, condition-variable
// wakeup, and join-on-destruction (the destructor drains every queued
// task before returning). A task that throws is contained: the first
// exception is captured and rethrown from the next Wait() on the calling
// thread, and sibling tasks keep running -- a throwing job can never
// std::terminate the process or abort the rest of the batch. Callers
// needing *per-task* exception identity still capture std::exception_ptr
// inside the task (exec::ParallelMap does); the pool-level capture is the
// backstop for tasks submitted without such wrapping.
//
// dlp-lint: internal-header -- the pool is an implementation detail of
// the executor; other subsystems use exec::ParallelMap / exec::RunJobs
// (run_grid.h) instead of scheduling on the pool directly (enforced by
// dlp_lint rule I2).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dlpsim::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is clamped to 1).
  explicit ThreadPool(std::size_t threads);

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Tasks run in FIFO order across the workers.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle, then
  /// rethrows the first exception any task threw since the last Wait()
  /// (the stored exception is cleared). Destruction never rethrows.
  void Wait();

  std::size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;  // first task exception since last Wait
  std::vector<std::thread> workers_;
};

}  // namespace dlpsim::exec
