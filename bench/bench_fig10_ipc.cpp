// Reproduces paper Fig. 10: IPC of every benchmark under the baseline
// 16KB L1D, Stall-Bypass, Global-Protection, DLP and a 32KB L1D,
// normalized to the baseline, with geometric means over the CS and CI
// groups.
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig10_ipc");
  std::cout << "=== Fig. 10: normalized IPC "
               "(baseline / Stall-Bypass / Global-Protection / DLP / 32KB) "
               "===\n\n";

  const std::vector<std::string> configs = {"base", "sb", "gp", "dlp",
                                            "32kb"};
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid = bench::RunGrid(bench::AllAppAbbrs(), configs);
  TextTable t({"app", "type", "16KB(base)", "Stall-Bypass",
               "Global-Protection", "DLP", "32KB"});

  std::vector<double> geo_cs[5];
  std::vector<double> geo_ci[5];

  for (const AppInfo& app : AllApps()) {
    const double base_ipc = grid.at(app.abbr, "base").metrics.ipc();
    std::vector<std::string> row = {app.abbr,
                                    app.cache_insufficient ? "CI" : "CS"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double ipc = grid.at(app.abbr, configs[c]).metrics.ipc();
      const double norm = bench::Normalize(ipc, base_ipc);
      row.push_back(Fmt(norm, 3));
      (app.cache_insufficient ? geo_ci : geo_cs)[c].push_back(norm);
    }
    t.AddRow(row);
  }

  std::vector<std::string> cs_row = {"G.MEAN", "CS"};
  std::vector<std::string> ci_row = {"G.MEAN", "CI"};
  for (std::size_t c = 0; c < configs.size(); ++c) {
    cs_row.push_back(Fmt(GeoMean(geo_cs[c]), 3));
    ci_row.push_back(Fmt(GeoMean(geo_ci[c]), 3));
  }
  t.AddRow(cs_row);
  t.AddRow(ci_row);

  std::cout << t.Render() << '\n';
  std::cout << "Paper targets: CI geomean SB ~1.14, GP ~1.347, DLP ~1.438, "
               "32KB ~1.50; CS geomean ~1.00 for GP/DLP (SB loses ~2.4%, "
               "with SRAD/BT down 11-12%).\n";
  return bench::ExitStatus();
}
