// RunGrid/Job API: deterministic parallel execution of an (app x config)
// experiment matrix.
//
// Every simulation cell is fully independent and deterministic, so the
// executor schedules each cell as an isolated job on a fixed-size
// ThreadPool and returns results in *grid order* (the input order),
// regardless of completion order. With jobs == 1 everything runs inline
// on the calling thread -- no worker threads are created -- reproducing
// the historical serial path bit for bit.
//
// Worker count resolution (DefaultJobs): the DLPSIM_JOBS environment
// knob when set to a positive integer, else std::thread's
// hardware_concurrency (minimum 1).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "exec/timing.h"

namespace dlpsim::exec {

/// One cell of an experiment grid.
struct Job {
  std::string app;
  std::string config;
};

/// The (app x config) matrix in app-major (row-major) order: the cell
/// (a, c) lands at index a * configs.size() + c.
std::vector<Job> Grid(const std::vector<std::string>& apps,
                      const std::vector<std::string>& configs);

/// Worker count: DLPSIM_JOBS if set to a positive integer, otherwise
/// hardware_concurrency (never 0).
std::size_t DefaultJobs();

/// Runs fn(i) for i in [0, n) on up to `jobs` workers and returns the
/// results in index order. jobs <= 1 executes inline (serial path). If
/// any invocation throws, the first failing index's exception is
/// rethrown after all jobs finish.
template <typename Fn>
auto ParallelMap(std::size_t n, Fn&& fn, std::size_t jobs = DefaultJobs())
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<R> results(n);
  if (n == 0) return results;
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }
  std::vector<std::exception_ptr> errors(n);
  {
    ThreadPool pool(std::min(jobs, n));
    for (std::size_t i = 0; i < n; ++i) {
      pool.Submit([&results, &errors, &fn, i] {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    pool.Wait();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
  return results;
}

/// Maps `fn` over the grid cells; results in grid order.
template <typename Fn>
auto RunJobs(const std::vector<Job>& grid, Fn&& fn,
             std::size_t jobs = DefaultJobs())
    -> std::vector<std::invoke_result_t<Fn&, const Job&>> {
  return ParallelMap(
      grid.size(), [&grid, &fn](std::size_t i) { return fn(grid[i]); }, jobs);
}

// --- resilient execution (TryRunJobs) ---
//
// RunJobs/ParallelMap abort the whole grid on the first failing cell --
// correct for tests, fatal for a multi-hour sweep where one bad cell
// should not discard hundreds of finished ones. TryRunJobs runs every
// cell to completion, retries failing cells with backoff, and reports
// the survivors as structured JobFailures instead of throwing.

/// Retry/timeout policy for TryRunJobs.
struct RetryPolicy {
  int max_attempts = 2;          // 1 = no retry
  double backoff_seconds = 0.05; // sleep before attempt k: backoff * 2^(k-2)
  // Per-attempt wall-clock budget. 0 disables. The timeout is
  // *cooperative*: the attempt is never killed mid-flight (jobs share
  // in-process state and must not be abandoned on a detached thread);
  // instead an over-budget attempt's result is discarded and counted as
  // a timed-out failure.
  double timeout_seconds = 0.0;
};

/// One cell that still failed after every attempt.
struct JobFailure {
  std::size_t index = 0;  // grid index (app-major)
  Job job;
  std::string error;      // what() of the last attempt (or timeout note)
  int attempts = 0;
  bool timed_out = false;
};

/// Outcome of a resilient grid run. `results[i]` is value-initialized
/// for every failed cell i (look it up in `failures` by index).
template <typename R>
struct GridRun {
  std::vector<R> results;
  std::vector<JobFailure> failures;  // in grid order
  bool ok() const { return failures.empty(); }
};

/// Runs every grid cell through `fn` with per-cell retry; never throws a
/// cell's exception. The grid always runs to completion and failures come
/// back as data (recorded into <bench>_timing.json by the harness).
template <typename Fn>
auto TryRunJobs(const std::vector<Job>& grid, Fn&& fn,
                RetryPolicy retry = {}, std::size_t jobs = DefaultJobs())
    -> GridRun<std::invoke_result_t<Fn&, const Job&>> {
  using R = std::invoke_result_t<Fn&, const Job&>;
  GridRun<R> run;
  run.results.resize(grid.size());
  std::vector<std::unique_ptr<JobFailure>> failed(grid.size());
  const int max_attempts = retry.max_attempts < 1 ? 1 : retry.max_attempts;

  ParallelMap(
      grid.size(),
      [&](std::size_t i) -> int {
        std::string last_error;
        bool timed_out = false;
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
          if (attempt > 1 && retry.backoff_seconds > 0.0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(
                retry.backoff_seconds * static_cast<double>(1 << (attempt - 2))));
          }
          const Stopwatch attempt_clock;
          try {
            R result = fn(grid[i]);
            const double secs = attempt_clock.Seconds();
            if (retry.timeout_seconds > 0.0 && secs > retry.timeout_seconds) {
              timed_out = true;
              last_error = "attempt took " + std::to_string(secs) +
                           "s, over the " +
                           std::to_string(retry.timeout_seconds) +
                           "s per-job timeout";
              continue;  // result discarded; maybe retried
            }
            run.results[i] = std::move(result);
            return 0;
          } catch (const std::exception& e) {
            timed_out = false;
            last_error = e.what();
          } catch (...) {
            timed_out = false;
            last_error = "unknown exception";
          }
        }
        auto failure = std::make_unique<JobFailure>();
        failure->index = i;
        failure->job = grid[i];
        failure->error = std::move(last_error);
        failure->attempts = max_attempts;
        failure->timed_out = timed_out;
        failed[i] = std::move(failure);
        return 0;
      },
      jobs);

  for (std::unique_ptr<JobFailure>& f : failed) {
    if (f != nullptr) run.failures.push_back(std::move(*f));
  }
  return run;
}

}  // namespace dlpsim::exec
