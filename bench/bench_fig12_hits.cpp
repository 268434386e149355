// Reproduces paper Figs. 12a/12b: L1D hit rate (bypassed accesses do not
// count) and the normalized number of L1D hits.
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig12_hits");
  const std::vector<std::string> configs = {"base", "sb", "gp", "dlp"};
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid = bench::RunGrid(bench::AllAppAbbrs(), configs);

  std::cout << "=== Fig. 12a: L1D hit rate ===\n\n";
  TextTable ta({"app", "type", "16KB(base)", "Stall-Bypass",
                "Global-Protection", "DLP"});
  for (const AppInfo& app : AllApps()) {
    std::vector<std::string> row = {app.abbr,
                                    app.cache_insufficient ? "CI" : "CS"};
    for (const std::string& c : configs) {
      row.push_back(Pct(grid.at(app.abbr, c).metrics.l1d_hit_rate()));
    }
    ta.AddRow(row);
  }
  std::cout << ta.Render() << '\n';

  std::cout << "=== Fig. 12b: normalized number of L1D hits ===\n\n";
  TextTable tb({"app", "type", "16KB(base)", "Stall-Bypass",
                "Global-Protection", "DLP"});
  std::vector<double> geo_ci[4];
  for (const AppInfo& app : AllApps()) {
    const double base = static_cast<double>(
        grid.at(app.abbr, "base").metrics.l1d_load_hits);
    std::vector<std::string> row = {app.abbr,
                                    app.cache_insufficient ? "CI" : "CS"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double v = bench::Normalize(
          static_cast<double>(
              grid.at(app.abbr, configs[c]).metrics.l1d_load_hits),
          base);
      row.push_back(Fmt(v, 2));
      if (app.cache_insufficient) geo_ci[c].push_back(v);
    }
    tb.AddRow(row);
  }
  tb.AddRow({"G.MEAN", "CI", Fmt(GeoMean(geo_ci[0]), 2),
             Fmt(GeoMean(geo_ci[1]), 2), Fmt(GeoMean(geo_ci[2]), 2),
             Fmt(GeoMean(geo_ci[3]), 2)});
  std::cout << tb.Render() << '\n';
  std::cout << "Paper shape: DLP's hit rate is the highest on CI "
               "applications even where its absolute hit count is not "
               "(it serves fewer accesses but keeps the valuable lines).\n";
  return bench::ExitStatus();
}
