// Reproduces paper Fig. 7: per-memory-instruction reuse-distance
// distributions for BFS, demonstrating why a single protection distance
// cannot fit all instructions.
#include <iostream>

#include "analysis/report.h"
#include "harness.h"
#include "workloads/registry.h"

using namespace dlpsim;

int main() {
  bench::TimingScope timing("bench_fig07_bfs_insn");
  std::cout << "=== Fig. 7: per-instruction RDD for BFS ===\n\n";
  const bench::Grid grid = bench::RunGrid({"BFS"}, {"base"});
  const bench::RunResult& r = grid.at("BFS", "base");

  TextTable t({"insn", "PC", "rd 1~4", "rd 5~8", "rd 9~64", "rd >65",
               "re-refs"});
  int insn = 1;
  for (const auto& [pc, h] : r.profile.per_pc) {
    t.AddRow({"insn" + std::to_string(insn++), std::to_string(pc),
              Pct(h.fraction(0)), Pct(h.fraction(1)), Pct(h.fraction(2)),
              Pct(h.fraction(3)), std::to_string(h.total())});
  }
  std::cout << t.Render() << '\n';
  std::cout << "Paper shape: distributions differ wildly across the memory "
               "instructions of one kernel -- some are dominated by short "
               "distances, others by the 9~64 band or beyond; a per-"
               "instruction protection distance can fit each one.\n";
  return bench::ExitStatus();
}
