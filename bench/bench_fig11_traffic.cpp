// Reproduces paper Figs. 11a/11b: normalized L1D traffic (accesses that
// enter the cache) and normalized L1D evictions under the baseline,
// Stall-Bypass, Global-Protection and DLP.
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

namespace {

void Emit(const bench::Grid& grid, const char* title,
          double (*metric)(const Metrics&)) {
  const std::vector<std::string>& configs = grid.configs;
  TextTable t({"app", "type", "16KB(base)", "Stall-Bypass",
               "Global-Protection", "DLP"});
  std::vector<double> geo_cs[4];
  std::vector<double> geo_ci[4];
  for (const AppInfo& app : AllApps()) {
    const double base = metric(grid.at(app.abbr, "base").metrics);
    std::vector<std::string> row = {app.abbr,
                                    app.cache_insufficient ? "CI" : "CS"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double v = bench::Normalize(
          metric(grid.at(app.abbr, configs[c]).metrics), base);
      row.push_back(Fmt(v, 3));
      (app.cache_insufficient ? geo_ci : geo_cs)[c].push_back(v);
    }
    t.AddRow(row);
  }
  std::vector<std::string> cs = {"G.MEAN", "CS"};
  std::vector<std::string> ci = {"G.MEAN", "CI"};
  for (int c = 0; c < 4; ++c) {
    cs.push_back(Fmt(GeoMean(geo_cs[c]), 3));
    ci.push_back(Fmt(GeoMean(geo_ci[c]), 3));
  }
  t.AddRow(cs);
  t.AddRow(ci);
  std::cout << title << "\n\n" << t.Render() << '\n';
}

}  // namespace

int main() {
  bench::TimingScope timing("bench_fig11_traffic");
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid =
      bench::RunGrid(bench::AllAppAbbrs(), {"base", "sb", "gp", "dlp"});
  Emit(grid, "=== Fig. 11a: normalized L1D traffic ===",
       [](const Metrics& m) { return static_cast<double>(m.l1d_traffic()); });
  Emit(grid, "=== Fig. 11b: normalized L1D evictions ===",
       [](const Metrics& m) { return static_cast<double>(m.l1d_evictions); });
  std::cout << "Paper targets (CI geomeans): traffic SB ~0.716, GP ~0.598, "
               "DLP ~0.475; evictions SB ~0.565, GP ~0.357, DLP ~0.207. "
               "DLP bypasses most aggressively and evicts least.\n";
  return bench::ExitStatus();
}
