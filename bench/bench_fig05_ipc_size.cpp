// Reproduces paper Fig. 5: IPC of 16KB/32KB/64KB caches normalized to
// the 16KB baseline.
#include <iostream>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig05_ipc_size");
  std::cout << "=== Fig. 5: normalized IPC vs L1D cache size ===\n\n";
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid =
      bench::RunGrid(bench::AllAppAbbrs(), {"base", "32kb", "64kb"});
  TextTable t({"app", "type", "16KB", "32KB", "64KB"});
  for (const AppInfo& app : AllApps()) {
    const double base = grid.at(app.abbr, "base").metrics.ipc();
    t.AddRow({app.abbr, app.cache_insufficient ? "CI" : "CS", Fmt(1.0, 3),
              Fmt(bench::Normalize(
                      grid.at(app.abbr, "32kb").metrics.ipc(), base),
                  3),
              Fmt(bench::Normalize(
                      grid.at(app.abbr, "64kb").metrics.ipc(), base),
                  3)});
  }
  std::cout << t.Render() << '\n';
  std::cout << "Paper shape: CI applications speed up markedly with larger "
               "caches; CS applications are insensitive (their memory "
               "access ratio is below 1%).\n";
  return bench::ExitStatus();
}
