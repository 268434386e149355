// The executor's core guarantee: running an experiment grid on N worker
// threads produces byte-identical results to the serial path, for any N.
// Every simulation is isolated (no shared mutable state), so the only
// way this can break is a real concurrency bug -- which is exactly what
// the test exists to catch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "harness.h"

namespace dlpsim::bench {
namespace {

// Small but non-trivial grid: one cache-sufficient and one
// cache-insufficient app, baseline and the full DLP policy.
const std::vector<std::string> kApps = {"HS", "SRK"};
const std::vector<std::string> kConfigs = {"base", "dlp"};
constexpr double kScale = 0.02;

std::string CellText(const RunResult& r) {
  return r.metrics.ToText() + "---\n" + r.profile.ToText();
}

TEST(Determinism, ParallelGridMatchesSerialByteForByte) {
  const std::vector<exec::Job> grid = exec::Grid(kApps, kConfigs);

  // Serial reference: inline on this thread, no worker threads.
  std::vector<std::string> serial;
  for (const exec::Job& j : grid) {
    serial.push_back(CellText(SimulateUncached(j.app, j.config, kScale)));
  }

  // Same grid with 8 jobs requested: one thread per cell (more threads
  // than most CI hosts have cores, so real interleaving happens even on
  // one core).
  const auto parallel = exec::ParallelMap(
      grid.size(),
      [&grid](std::size_t i) {
        return CellText(SimulateUncached(grid[i].app, grid[i].config, kScale));
      },
      8);

  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i])
        << grid[i].app << "/" << grid[i].config;
  }
}

TEST(Determinism, RepeatedSimulationIsStable) {
  const std::string a = CellText(SimulateUncached("HS", "dlp", kScale));
  const std::string b = CellText(SimulateUncached("HS", "dlp", kScale));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dlpsim::bench
