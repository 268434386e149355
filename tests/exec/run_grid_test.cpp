// Executor tests: ParallelMap runs every index exactly once on at most
// min(jobs, n) threads, returns results in index order, and rethrows the
// lowest failing index only after every index has run.
#include "exec/run_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dlpsim::exec {
namespace {

TEST(ParallelMap, RunsEveryIndexOnceInIndexOrder) {
  constexpr std::size_t kN = 10;
  for (const std::size_t jobs :
       {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    std::vector<std::atomic<int>> runs(kN);
    std::mutex mu;
    std::set<std::thread::id> threads;
    const auto r = ParallelMap(
        kN,
        [&](std::size_t i) {
          ++runs[i];
          std::lock_guard<std::mutex> lock(mu);
          threads.insert(std::this_thread::get_id());
          return i * 3;
        },
        jobs);
    ASSERT_EQ(r.size(), kN) << "jobs=" << jobs;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "jobs=" << jobs << " i=" << i;
      EXPECT_EQ(r[i], i * 3) << "jobs=" << jobs << " i=" << i;
    }
    // Never more threads than indices, and one thread below two jobs.
    EXPECT_LE(threads.size(), std::max<std::size_t>(1, std::min(jobs, kN)))
        << "jobs=" << jobs;
  }
}

TEST(ParallelMap, ResultsInIndexOrder) {
  const auto r = ParallelMap(
      64, [](std::size_t i) { return i * i; }, 8);
  ASSERT_EQ(r.size(), 64u);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], i * i);
}

TEST(ParallelMap, SerialPathRunsInline) {
  const auto caller = std::this_thread::get_id();
  const auto r = ParallelMap(
      8, [caller](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        return i;
      },
      1);
  ASSERT_EQ(r.size(), 8u);
}

TEST(ParallelMap, EmptyInputReturnsEmpty) {
  const auto r = ParallelMap(
      0, [](std::size_t i) { return i; }, 8);
  EXPECT_TRUE(r.empty());
}

TEST(ParallelMap, PropagatesFirstExceptionByIndex) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    std::atomic<int> ran{0};
    try {
      ParallelMap(
          32, [&ran](std::size_t i) -> int {
            ++ran;
            if (i == 7) throw std::runtime_error("boom 7");
            if (i == 20) throw std::runtime_error("boom 20");
            return 0;
          },
          jobs);
      FAIL() << "expected throw with jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 7") << "jobs=" << jobs;
    }
    // Every index runs before the rethrow, serial or parallel.
    EXPECT_EQ(ran.load(), 32) << "jobs=" << jobs;
  }
}

TEST(ParallelMap, ThrowingTaskDoesNotAbortSiblings) {
  std::atomic<int> completed{0};
  EXPECT_THROW(ParallelMap(
                   16,
                   [&completed](std::size_t i) -> int {
                     if (i == 5) throw std::runtime_error("task 5 failed");
                     ++completed;
                     return 0;
                   },
                   4),
               std::runtime_error);
  // The throw surfaces only after the other fifteen indices ran.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ParallelMap, NonExceptionThrowIsRethrownAfterEveryIndex) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
    std::atomic<int> ran{0};
    try {
      ParallelMap(
          6, [&ran](std::size_t i) -> int {
            ++ran;
            if (i == 2) throw 17;  // not a std::exception
            return 0;
          },
          jobs);
      FAIL() << "expected throw with jobs=" << jobs;
    } catch (int thrown) {
      EXPECT_EQ(thrown, 17) << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 6) << "jobs=" << jobs;
  }
}

TEST(Grid, AppMajorOrder) {
  const auto grid = Grid({"A", "B"}, {"x", "y", "z"});
  ASSERT_EQ(grid.size(), 6u);
  EXPECT_EQ(grid[0].app, "A");
  EXPECT_EQ(grid[0].config, "x");
  EXPECT_EQ(grid[2].app, "A");
  EXPECT_EQ(grid[2].config, "z");
  EXPECT_EQ(grid[3].app, "B");
  EXPECT_EQ(grid[3].config, "x");
  EXPECT_EQ(grid[5].config, "z");
}

TEST(DefaultJobs, HonorsEnvAndNeverZero) {
  char* saved = std::getenv("DLPSIM_JOBS");
  const std::string restore = saved != nullptr ? saved : "";

  ::setenv("DLPSIM_JOBS", "3", 1);
  EXPECT_EQ(DefaultJobs(), 3u);
  ::setenv("DLPSIM_JOBS", "0", 1);  // invalid -> hardware concurrency
  EXPECT_GE(DefaultJobs(), 1u);
  ::unsetenv("DLPSIM_JOBS");
  EXPECT_GE(DefaultJobs(), 1u);

  if (saved != nullptr) ::setenv("DLPSIM_JOBS", restore.c_str(), 1);
}

}  // namespace
}  // namespace dlpsim::exec
