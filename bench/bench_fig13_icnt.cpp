// Reproduces paper Fig. 13: normalized interconnect traffic (all L1
// clients share the network, so L1D reductions are diluted).
#include <iostream>
#include <vector>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig13_icnt");
  std::cout << "=== Fig. 13: normalized interconnect traffic ===\n\n";
  const std::vector<std::string> configs = {"base", "sb", "gp", "dlp"};
  // Simulate the whole grid in parallel (DLPSIM_JOBS workers); the
  // tables below read its cells.
  const bench::Grid grid = bench::RunGrid(bench::AllAppAbbrs(), configs);
  TextTable t({"app", "type", "16KB(base)", "Stall-Bypass",
               "Global-Protection", "DLP", "(L1D share)"});
  std::vector<double> geo_cs[4];
  std::vector<double> geo_ci[4];
  for (const AppInfo& app : AllApps()) {
    const Metrics& base = grid.at(app.abbr, "base").metrics;
    std::vector<std::string> row = {app.abbr,
                                    app.cache_insufficient ? "CI" : "CS"};
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const double v = bench::Normalize(
          static_cast<double>(
              grid.at(app.abbr, configs[c]).metrics.icnt_bytes_total),
          static_cast<double>(base.icnt_bytes_total));
      row.push_back(Fmt(v, 3));
      (app.cache_insufficient ? geo_ci : geo_cs)[c].push_back(v);
    }
    row.push_back(Pct(base.icnt_bytes_total == 0
                          ? 0.0
                          : static_cast<double>(base.icnt_bytes_l1d) /
                                base.icnt_bytes_total,
                      0));
    t.AddRow(row);
  }
  std::vector<std::string> cs = {"G.MEAN", "CS"};
  std::vector<std::string> ci = {"G.MEAN", "CI"};
  for (int c = 0; c < 4; ++c) {
    cs.push_back(Fmt(GeoMean(geo_cs[c]), 3));
    ci.push_back(Fmt(GeoMean(geo_ci[c]), 3));
  }
  cs.push_back("");
  ci.push_back("");
  t.AddRow(cs);
  t.AddRow(ci);
  std::cout << t.Render() << '\n';
  std::cout << "Paper targets: average interconnect reduction ~6.2% with "
               "Stall-Bypass and ~11.5% with DLP on CI applications -- much "
               "smaller than the L1D traffic reduction because the network "
               "also serves L1I/L1C/L1T traffic.\n";
  return bench::ExitStatus();
}
