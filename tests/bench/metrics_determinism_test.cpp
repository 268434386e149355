// Metrics-dump determinism, per-run attribution and conservation:
//
//  1. The DLPSIM_METRICS dump (<bench>_metrics.prom, written by
//     TimingScope) is byte-identical at any DLPSIM_JOBS, and on a cold
//     or a warm cache directory: the dump implies no result cache, so a
//     cached cell can never drop out of it.
//  2. A run's counter table (GpuSimulator::CounterTable) belongs to that
//     run alone: two cells simulated concurrently each get the table
//     they get when simulated by themselves.
//  3. The table reconciles exactly with the Metrics block the simulator
//     returns for the same run -- both read the same component counters.
//
// The dump tests run each bench pass in a forked child: the harness's
// counter totals live for the whole process, so a second pass in the
// same process would count every cell twice.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workloads/registry.h"

namespace dlpsim::bench {
namespace {

namespace fs = std::filesystem;

constexpr double kScale = 0.02;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> next{0};
    dir_ = fs::temp_directory_path() /
           ("dlpsim_metrics_" + std::to_string(::getpid()) + "_" +
            std::to_string(next.fetch_add(1)));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `body` inside a TimingScope named `name` in a forked child with
/// DLPSIM_METRICS=1, DLPSIM_TIMING_DIR=`timing_dir` and DLPSIM_CACHE_DIR=
/// `cache_dir`, and returns the <name>_metrics.prom the child's scope
/// wrote ("" if the child failed).
std::string MetricsDumpFromChild(const std::string& name,
                                 const fs::path& timing_dir,
                                 const fs::path& cache_dir,
                                 const std::function<void()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    int code = 0;
    try {
      ::setenv("DLPSIM_METRICS", "1", 1);
      ::setenv("DLPSIM_TIMING_DIR", timing_dir.c_str(), 1);
      ::setenv("DLPSIM_CACHE_DIR", cache_dir.c_str(), 1);
      ::unsetenv("DLPSIM_NOCACHE");
      TimingScope scope(name);
      body();
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return "";
  }
  return ReadFile(timing_dir / (name + "_metrics.prom"));
}

TEST(MetricsDeterminism, DumpByteIdenticalAcrossJobCounts) {
  TempDir tmp;
  const auto dump_at = [&tmp](std::size_t jobs) {
    return MetricsDumpFromChild(
        "jobs" + std::to_string(jobs), tmp.path(), tmp.path() / "cache",
        [jobs] { RunGrid({"BFS", "BP"}, {"base", "dlp"}, kScale, jobs); });
  };
  const std::string serial = dump_at(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, dump_at(8));
  EXPECT_EQ(serial, dump_at(3));

  // The dump is not trivially empty: the grid counted real work.
  EXPECT_NE(serial.find("dlpsim_cache_accesses"), std::string::npos);
  EXPECT_NE(serial.find("dlpsim_mem_dram_reads"), std::string::npos);
  EXPECT_EQ(serial.find("dlpsim_exec_"), std::string::npos);
}

TEST(MetricsDeterminism, CacheStateDoesNotChangeTheDump) {
  // One cache directory: the first pass finds it cold, the second finds
  // whatever the first left there. Every cell must simulate and count
  // both times.
  TempDir tmp;
  const fs::path cache = tmp.path() / "cache";
  const auto pass = [&](const std::string& name) {
    return MetricsDumpFromChild(name, tmp.path(), cache, [] {
      for (const std::string app : {"BFS", "HS"}) {
        for (const std::string config : {"base", "dlp"}) {
          bench::Run(app, config, kScale);
        }
      }
    });
  };
  const std::string cold = pass("cold");
  const std::string warm = pass("warm");
  ASSERT_FALSE(cold.empty());
  EXPECT_EQ(cold, warm);
  EXPECT_NE(cold.find("dlpsim_cache_accesses"), std::string::npos);
  EXPECT_NE(warm.find("dlpsim_cache_fills"), std::string::npos);
}

/// One cell simulated outside the harness, with its Metrics block, its
/// counter table and the summed PDPT sample count.
struct CellRun {
  Metrics metrics;
  obs::Registry table;
  std::uint64_t samples_taken = 0;
};

CellRun SimulateCell(const std::string& app, const std::string& config) {
  Workload wl = MakeWorkload(app, kScale);
  GpuSimulator gpu(ConfigFor(config), wl.program.get(), wl.warps_per_sm);
  CellRun run;
  run.metrics = gpu.Run();
  run.table = gpu.CounterTable();
  run.samples_taken = gpu.SnapshotPolicy().samples_taken;
  return run;
}

std::string TableText(const obs::Registry& table) {
  std::ostringstream os;
  table.WriteText(os);
  return os.str();
}

TEST(MetricsAttribution, ConcurrentRunsKeepTheirOwnTables) {
  const std::vector<exec::Job> grid = {{"BFS", "dlp"}, {"HS", "base"}};
  const std::vector<std::string> together = exec::ParallelMap(
      grid.size(),
      [&grid](std::size_t i) {
        return TableText(SimulateCell(grid[i].app, grid[i].config).table);
      },
      2);
  ASSERT_EQ(together.size(), 2u);
  EXPECT_EQ(together[0], TableText(SimulateCell("BFS", "dlp").table));
  EXPECT_EQ(together[1], TableText(SimulateCell("HS", "base").table));
  EXPECT_NE(together[0], together[1]);
}

TEST(MetricsConservation, RegistryMatchesMetricsBlock) {
  // BFS is the historical cell; SR2K also ends PDPT sample windows at
  // this scale, so the pd_recomputes check is not vacuous.
  for (const std::string app : {"BFS", "SR2K"}) {
    SCOPED_TRACE(app);
    const CellRun r = SimulateCell(app, "dlp");
    ASSERT_GT(r.metrics.l1d_accesses, 0u);

    const obs::Registry& t = r.table;
    EXPECT_EQ(t.CounterValue("cache", "accesses"), r.metrics.l1d_accesses);
    EXPECT_EQ(t.CounterValue("cache", "fills"), r.metrics.l1d_fills);
    EXPECT_EQ(t.CounterValue("mem", "dram_reads"), r.metrics.dram_reads);
    EXPECT_EQ(t.CounterValue("mem", "dram_writes"), r.metrics.dram_writes);

    // The MSHR-occupancy histogram observes exactly once per issued miss.
    const obs::Histogram* mshr = t.FindHistogram("cache", "mshr_occupancy");
    ASSERT_NE(mshr, nullptr);
    EXPECT_EQ(mshr->Count(), r.metrics.l1d_misses_issued);

    // Every end-of-window PD recomputation is one PDPT sample.
    EXPECT_EQ(t.CounterValue("cache", "pd_recomputes"), r.samples_taken);
    if (app == "SR2K") {
      EXPECT_GT(r.samples_taken, 0u);
    }
  }
}

TEST(MetricsConservation, MergeOfTwoRunsCountsTwice) {
  const CellRun r = SimulateCell("HS", "base");
  obs::Registry sum;
  sum.Merge(r.table);
  sum.Merge(r.table);
  EXPECT_EQ(sum.CounterValue("cache", "accesses"),
            2 * r.metrics.l1d_accesses);
  EXPECT_EQ(sum.FindHistogram("cache", "mshr_occupancy")->Count(),
            2 * r.metrics.l1d_misses_issued);
  // Baseline has no protection policy: its protection counters read 0
  // but are still present, so every run's table has the same entries.
  EXPECT_EQ(sum.size(), r.table.size());
  EXPECT_EQ(sum.CounterValue("cache", "pl_decrements"), 0u);
}

}  // namespace
}  // namespace dlpsim::bench
