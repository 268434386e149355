// Deterministic parallel execution of an (app x config) experiment
// matrix.
//
// Every simulation cell is fully independent and deterministic, so
// ParallelMap runs each index on one of a few plain std::threads that
// pull indices from a shared atomic counter, and returns results in
// *index order* regardless of completion order. With jobs <= 1 the same
// loop runs inline on the calling thread -- no worker threads are
// created -- reproducing the serial path bit for bit.
//
// Worker count resolution (DefaultJobs): the DLPSIM_JOBS environment
// knob when set to a positive integer, else std::thread's
// hardware_concurrency (minimum 1).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

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

/// Runs fn(i) exactly once for every i in [0, n) on min(jobs, n) threads
/// (the calling thread is one of them; jobs <= 1 runs everything inline)
/// and returns the results in index order. If any invocation throws,
/// every other index still runs, then the lowest failing index's
/// exception is rethrown.
template <typename Fn>
auto ParallelMap(std::size_t n, Fn&& fn, std::size_t jobs = DefaultJobs())
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  std::vector<std::invoke_result_t<Fn&, std::size_t>> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  std::vector<std::thread> helpers;
  const std::size_t threads = std::min(jobs, n);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(worker);
    } catch (const std::system_error&) {
      break;  // out of threads: the ones running share the rest
    }
  }
  worker();
  for (std::thread& t : helpers) t.join();

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace dlpsim::exec
