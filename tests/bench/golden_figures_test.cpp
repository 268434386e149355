// Golden-figure regression: simulates the fig10/fig12 evaluation grid
// (every registered app under base/sb/gp/dlp/32kb) at a fixed scale and
// compares the counters that determine the published metrics against
// JSON snapshots recorded in tests/golden/.
//
// The simulator is deterministic and schedule-independent, so the
// comparison tolerance is explicit and tiny: any counter drifting by
// more than 1e-9 relative is a behaviour change that must either be
// fixed or consciously re-recorded with
//
//     DLPSIM_GOLDEN_UPDATE=1 ./tests/test_golden
//
// which rewrites the snapshot in the source tree (commit the diff).
// On failure the test prints a per-cell readable diff including the
// derived IPC / hit-rate movement.
//
// At scale 0.02 no cache-insufficient app decays a single protected
// life, so that snapshot cannot tell DLP from a DLP that never protects.
// A separate liveness test runs those apps at scale 0.1, where DLP's
// protection shows in every one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "exec/run_grid.h"
#include "gpu/simulator.h"
#include "harness.h"
#include "verify/golden.h"
#include "workloads/registry.h"

#ifndef DLPSIM_GOLDEN_DIR
#error "DLPSIM_GOLDEN_DIR must point at the source tests/golden directory"
#endif

namespace dlpsim::bench {
namespace {

constexpr double kScale = 0.02;  // fixed: snapshots ignore DLPSIM_SCALE
constexpr double kRelTol = 1e-9;

const std::vector<std::string> kConfigs = {"base", "sb", "gp", "dlp", "32kb"};

std::string GoldenPath() {
  return std::string(DLPSIM_GOLDEN_DIR) + "/figures_scale002.json";
}

bool UpdateRequested() {
  const char* env = std::getenv("DLPSIM_GOLDEN_UPDATE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

verify::GoldenSnapshot CaptureCurrent() {
  const std::vector<std::string> apps = AllAppAbbrs();
  const std::vector<exec::Job> grid = exec::Grid(apps, kConfigs);
  const auto results = exec::ParallelMap(grid.size(), [&grid](std::size_t i) {
    return SimulateUncached(grid[i].app, grid[i].config, kScale);
  });

  verify::GoldenSnapshot snap;
  snap.scale = kScale;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    snap.entries.push_back(verify::MakeGoldenEntry(
        grid[i].app, grid[i].config, results[i].metrics));
  }
  return snap;
}

TEST(GoldenFigures, Fig10AndFig12GridMatchesSnapshot) {
  const std::string path = GoldenPath();

  if (UpdateRequested()) {
    const verify::GoldenSnapshot current = CaptureCurrent();
    std::string error;
    ASSERT_TRUE(verify::SaveGoldenFile(path, current, &error)) << error;
    GTEST_SKIP() << "golden snapshot re-recorded at " << path
                 << " (" << current.entries.size() << " cells); commit it";
  }

  verify::GoldenSnapshot want;
  std::string error;
  ASSERT_TRUE(verify::LoadGoldenFile(path, &want, &error))
      << error << "\nNo snapshot? Record one with DLPSIM_GOLDEN_UPDATE=1 "
      << "./tests/test_golden";
  ASSERT_FALSE(want.entries.empty());
  EXPECT_DOUBLE_EQ(want.scale, kScale);

  const verify::GoldenSnapshot got = CaptureCurrent();
  const std::string diff = verify::DiffGolden(want, got, kRelTol);
  EXPECT_TRUE(diff.empty())
      << "golden-figure regression (tolerance " << kRelTol << " relative):\n"
      << diff
      << "If this change is intentional, re-record with "
      << "DLPSIM_GOLDEN_UPDATE=1 ./tests/test_golden and commit the diff.";
}

TEST(GoldenFigures, SnapshotCoversTheFullGrid) {
  if (UpdateRequested()) GTEST_SKIP() << "update mode";
  verify::GoldenSnapshot want;
  std::string error;
  ASSERT_TRUE(verify::LoadGoldenFile(GoldenPath(), &want, &error)) << error;
  const std::size_t expected = AllAppAbbrs().size() * kConfigs.size();
  EXPECT_EQ(want.entries.size(), expected);
}

TEST(GoldenFigures, DlpProtectionIsLiveOnEveryCiApp) {
  constexpr double kLiveScale = 0.1;
  struct Cell {
    std::string metrics;
    std::uint64_t pl_decrements = 0;
  };
  const auto simulate = [](const std::string& app, const std::string& config) {
    Workload wl = MakeWorkload(app, kLiveScale);
    GpuSimulator gpu(ConfigFor(config), wl.program.get(), wl.warps_per_sm);
    Cell cell;
    cell.metrics = gpu.Run().ToText();
    cell.pl_decrements = gpu.CounterTable().CounterValue("cache",
                                                         "pl_decrements");
    return cell;
  };
  for (const std::string& app : CiAppAbbrs()) {
    const Cell gp = simulate(app, "gp");
    const Cell dlp = simulate(app, "dlp");
    EXPECT_GT(dlp.pl_decrements, 0u) << app << ": dlp never decayed a PL";
    EXPECT_TRUE(dlp.metrics != gp.metrics) << app << ": dlp ran exactly as gp";
  }
}

}  // namespace
}  // namespace dlpsim::bench
