// Reproduces paper Fig. 6: memory access ratio (N_memory_access / N_insn)
// per application, sorted ascending; the 1% threshold separates Cache
// Sufficient from Cache Insufficient applications.
#include <algorithm>
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig06_memratio");
  std::cout << "=== Fig. 6: memory access ratio (sorted ascending) ===\n\n";
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid = bench::RunGrid(bench::AllAppAbbrs(), {"base"});

  struct Row {
    std::string abbr;
    bool ci;
    double ratio;
  };
  std::vector<Row> rows;
  for (const AppInfo& app : AllApps()) {
    rows.push_back({app.abbr, app.cache_insufficient,
                    grid.at(app.abbr, "base").metrics.memory_access_ratio()});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.ratio < b.ratio; });

  TextTable t({"app", "ratio", "class", "consistent"});
  bool all_consistent = true;
  for (const Row& r : rows) {
    const bool consistent = r.ci == (r.ratio >= 0.01);
    all_consistent &= consistent;
    t.AddRow({r.abbr, Pct(r.ratio, 2), r.ci ? "CI" : "CS",
              consistent ? "yes" : "NO"});
  }
  std::cout << t.Render() << '\n';
  std::cout << "1% threshold separates CS from CI: "
            << (all_consistent ? "holds for all applications"
                               : "VIOLATED (see rows above)")
            << ".\nNote: our synthetic CI kernels sit somewhat above the "
               "paper's lowest CI ratios (see EXPERIMENTS.md); the CS/CI "
               "split and ordering are preserved.\n";
  return bench::ExitStatus();
}
