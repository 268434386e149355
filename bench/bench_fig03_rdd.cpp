// Reproduces paper Fig. 3: the global reuse-distance distribution of
// every benchmark on the baseline L1D set mapping, bucketed 1~4 / 5~8 /
// 9~64 / >65.
#include <iostream>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig03_rdd");
  std::cout << "=== Fig. 3: Reuse Distance Distribution per application "
               "===\n\n";
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid = bench::RunGrid(bench::AllAppAbbrs(), {"base"});
  TextTable t({"app", "type", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65",
               "re-refs"});
  for (const AppInfo& app : AllApps()) {
    const RddHistogram& h = grid.at(app.abbr, "base").profile.global;
    t.AddRow({app.abbr, app.cache_insufficient ? "CI" : "CS",
              Pct(h.fraction(0)), Pct(h.fraction(1)), Pct(h.fraction(2)),
              Pct(h.fraction(3)), std::to_string(h.total())});
  }
  std::cout << t.Render() << '\n';
  std::cout << "Paper shape: RDDs vary widely across applications; CS apps "
               "like SC/BP are short-RD dominated, HG/STEN/KM long-RD "
               "dominated, MM spreads across all four buckets.\n";
  return bench::ExitStatus();
}
