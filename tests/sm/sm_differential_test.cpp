// Lockstep differential for the SM front end: the per-group coalescer,
// the bitmask warp picker and the mask-based drain checks against naive
// reference copies of the per-lane, full-scan and warp-walking versions
// (reference_sm.h), with planted-bug self-checks showing the comparison
// can fail.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "reference_sm.h"
#include "robust/invariants.h"
#include "sim/rng.h"
#include "sm/coalescer.h"
#include "sm/scheduler.h"
#include "workloads/patterns.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

using reference::RefScheduler;
using reference::RefTransactions;

// ---------------------------------------------------------------------------
// Coalescer
// ---------------------------------------------------------------------------

// One pattern of each kind, all at `base`.
std::vector<std::unique_ptr<AccessPattern>> AllKinds(
    Addr base, std::uint32_t lanes_per_line, std::uint32_t warp_size) {
  std::vector<std::unique_ptr<AccessPattern>> out;
  out.push_back(std::make_unique<StreamingPattern>(base, lanes_per_line,
                                                   warp_size, 16));
  out.push_back(std::make_unique<PrivateCyclicPattern>(base, lanes_per_line,
                                                       warp_size, 5));
  out.push_back(std::make_unique<SharedTilePattern>(base, lanes_per_line,
                                                    warp_size, 7, 3));
  out.push_back(std::make_unique<IndirectPattern>(base, lanes_per_line,
                                                  warp_size, 64, 0.8, 11));
  return out;
}

constexpr Addr kBases[] = {
    0,          Addr{1} << 32,       4,  60, 100, 124, (Addr{1} << 32) + 36,
    Addr{4096}, ~Addr{0} - 200};  // the last wraps around the address space
constexpr std::uint32_t kLanesPerLine[] = {1, 2, 3, 4, 5, 7, 8, 12, 16, 32, 48};
constexpr std::uint32_t kLineBytes[] = {32, 64, 128, 256};
constexpr std::uint32_t kWarpSizes[] = {8, 32, 64};

TEST(SmDifferential, CoalescerMatchesPerLaneReference) {
  std::uint64_t compared = 0, multi_line = 0;
  std::vector<Addr> lines;
  for (std::uint32_t warp_size : kWarpSizes) {
    for (std::uint32_t line_bytes : kLineBytes) {
      const Coalescer coalescer(warp_size, line_bytes);
      for (Addr base : kBases) {
        for (std::uint32_t lpl : kLanesPerLine) {
          for (const auto& p : AllKinds(base, lpl, warp_size)) {
            for (std::uint64_t warp = 0; warp < 6; ++warp) {
              for (std::uint64_t iter = 0; iter < 6; ++iter) {
                coalescer.Transactions(*p, warp, iter, lines);
                const std::vector<Addr> ref =
                    RefTransactions(*p, warp, iter, warp_size, line_bytes);
                ASSERT_EQ(lines, ref)
                    << p->Describe() << " base=" << base << " lpl=" << lpl
                    << " line_bytes=" << line_bytes
                    << " warp_size=" << warp_size << " warp=" << warp
                    << " iter=" << iter;
                ++compared;
                multi_line += ref.size() > 1;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, std::size(kWarpSizes) * std::size(kLineBytes) *
                          std::size(kBases) * std::size(kLanesPerLine) * 4 *
                          36);
  EXPECT_GT(multi_line, compared / 2);
}

TEST(SmDifferential, CoalescerReusesOutputStorage) {
  const Coalescer coalescer(32, 128);
  StreamingPattern wide(0, 1, 32, 4);     // 32 lines
  StreamingPattern narrow(0, 32, 32, 4);  // 1 line
  std::vector<Addr> lines;
  coalescer.Transactions(wide, 0, 0, lines);
  ASSERT_EQ(lines.size(), 32u);
  const Addr* storage = lines.data();
  coalescer.Transactions(narrow, 0, 0, lines);
  EXPECT_EQ(lines, RefTransactions(narrow, 0, 0, 32, 128));
  EXPECT_EQ(lines.data(), storage);
}

// Planted bug: takes every lane group to be one line.
std::vector<Addr> GroupIsOneLine(const AccessPattern& p, std::uint64_t warp,
                                 std::uint64_t iter, std::uint32_t warp_size,
                                 std::uint32_t line_bytes) {
  std::vector<Addr> lines;
  for (std::uint32_t g = 0; g * p.lanes_per_line() < warp_size; ++g) {
    const Addr line = p.GroupAddress(warp, iter, g) / line_bytes * line_bytes;
    if (std::find(lines.begin(), lines.end(), line) == lines.end()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(SmDifferential, PlantedGroupIsOneLineCoalescerDiverges) {
  for (Addr base : {Addr{4}, Addr{60}, Addr{100}, Addr{124}}) {
    for (const auto& p : AllKinds(base, 32, 32)) {
      bool diverged = false;
      for (std::uint64_t warp = 0; warp < 6 && !diverged; ++warp) {
        for (std::uint64_t iter = 0; iter < 6 && !diverged; ++iter) {
          diverged = GroupIsOneLine(*p, warp, iter, 32, 128) !=
                     RefTransactions(*p, warp, iter, 32, 128);
        }
      }
      EXPECT_TRUE(diverged) << p->Describe() << " base=" << base;
    }
  }
}

// ---------------------------------------------------------------------------
// Warp picking
// ---------------------------------------------------------------------------

// Planted bug: GTO over the candidate masks that never asks whether an
// SFU-busy warp's latency has elapsed.
std::uint32_t PickIgnoringBusy(const std::vector<Warp>& warps,
                               const WarpMask& finished,
                               const WarpMask& wait_mem, std::uint32_t index,
                               std::uint32_t stride, std::uint32_t last) {
  const auto n = static_cast<std::uint32_t>(warps.size());
  if (last != kInvalidIndex && !finished.Test(last) && !wait_mem.Test(last)) {
    return last;
  }
  for (std::uint32_t w = index; w < n; w += stride) {
    if (!finished.Test(w) && !wait_mem.Test(w)) return w;
  }
  return kInvalidIndex;
}

// Warps under random issue, block, SFU-busy, wake and finish sequences,
// with the finished/kWaitMem masks maintained where state changes, the
// way SmCore maintains them.
class WarpHarness {
 public:
  WarpHarness(std::uint32_t num_warps, std::uint64_t seed)
      : rng_(seed),
        finished_(num_warps),
        wait_mem_(num_warps),
        in_flight_(num_warps, false) {
    // Short programs of different lengths, so warps finish at different
    // times while others keep issuing.
    for (std::uint32_t iters : {3u, 7u, 20u, 60u}) {
      ProgramBuilder b(iters);
      b.Alu(1 + iters % 3);
      programs_.push_back(b.Build());
    }
    warps_.reserve(num_warps);
    for (std::uint32_t w = 0; w < num_warps; ++w) {
      warps_.emplace_back(w, w, programs_[rng_.Below(programs_.size())].get());
    }
  }

  const std::vector<Warp>& warps() const { return warps_; }
  const WarpMask& finished() const { return finished_; }
  const WarpMask& wait_mem() const { return wait_mem_; }

  // Memory replies: a blocked warp's op dispatches (with 0-3 misses), or
  // one of its outstanding transactions returns.
  void Wake() {
    for (std::uint32_t w = 0; w < warps_.size(); ++w) {
      if (!wait_mem_.Test(w) || rng_.Below(4) != 0) continue;
      Warp& warp = warps_[w];
      if (in_flight_[w]) {
        warp.AddOutstanding(static_cast<std::uint32_t>(rng_.Below(4)));
        warp.OnMemOpDispatched();
        in_flight_[w] = false;
      } else {
        warp.OnTransactionDone();
      }
      if (warp.Quiescent()) wait_mem_.Reset(w);
    }
  }

  // Issues `w` as an ALU op, a load (blocks) or an SFU op (busy 1-8).
  void Issue(std::uint32_t w, Cycle now) {
    Warp& warp = warps_[w];
    warp.AdvanceIssue(now);
    switch (rng_.Below(4)) {
      case 0:
        warp.BlockOnMem(now);
        wait_mem_.Set(w);
        in_flight_[w] = true;
        break;
      case 1:
        warp.BusyFor(now, 1 + rng_.Below(8));
        break;
      default:
        break;
    }
    if (warp.Finished()) finished_.Set(w);
  }

  bool AllFinished() const { return finished_.All(); }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<std::unique_ptr<Program>> programs_;
  std::vector<Warp> warps_;
  WarpMask finished_;
  WarpMask wait_mem_;
  std::vector<bool> in_flight_;
};

struct PickStats {
  std::uint64_t picks = 0;
  std::uint64_t idle = 0;
};

// Runs the bitmask schedulers and the reference schedulers in lockstep
// until every warp finished; returns the first divergence ("" if none).
std::string RunSchedulers(SchedulerKind kind, std::uint32_t num_schedulers,
                          std::uint32_t num_warps, std::uint64_t seed,
                          PickStats& stats) {
  WarpHarness h(num_warps, seed);
  std::vector<WarpScheduler> opt;
  std::vector<RefScheduler> ref;
  for (std::uint32_t s = 0; s < num_schedulers; ++s) {
    opt.emplace_back(kind, s, num_schedulers, num_warps);
    ref.emplace_back(kind, s, num_schedulers);
  }
  for (Cycle now = 0; now < 200000 && !h.AllFinished(); ++now) {
    h.Wake();
    const reference::WalkedMasks walked = reference::WalkMasks(h.warps());
    if (!(walked.finished == h.finished()) ||
        !(walked.wait_mem == h.wait_mem())) {
      return "harness masks drifted at cycle " + std::to_string(now);
    }
    for (std::uint32_t s = 0; s < num_schedulers; ++s) {
      const std::uint32_t got =
          opt[s].Pick(h.warps(), h.finished(), h.wait_mem(), now);
      const std::uint32_t want = ref[s].Pick(h.warps(), now);
      if (got != want) {
        std::ostringstream os;
        os << "cycle " << now << " scheduler " << s << ": picked " << got
           << ", reference " << want;
        return os.str();
      }
      if (got == kInvalidIndex) {
        ++stats.idle;
        continue;
      }
      ++stats.picks;
      // A structural hazard sometimes keeps the picked warp from issuing.
      if (h.rng().Below(10) == 0) continue;
      h.Issue(got, now);
      opt[s].OnIssued(got);
      ref[s].OnIssued(got);
    }
  }
  if (!h.AllFinished()) return "warps did not finish";
  return "";
}

TEST(SmDifferential, SchedulersMatchFullScanReference) {
  std::uint64_t idle = 0;
  for (SchedulerKind kind : {SchedulerKind::kGto, SchedulerKind::kLrr}) {
    for (std::uint32_t schedulers = 1; schedulers <= 4; ++schedulers) {
      for (std::uint32_t warps : {1u, 5u, 48u, 63u, 64u, 65u, 96u}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          PickStats stats;
          EXPECT_EQ(RunSchedulers(kind, schedulers, warps, seed, stats), "")
              << (kind == SchedulerKind::kGto ? "gto" : "lrr")
              << " schedulers=" << schedulers << " warps=" << warps
              << " seed=" << seed;
          EXPECT_GT(stats.picks, warps);
          idle += stats.idle;
        }
      }
    }
  }
  EXPECT_GT(idle, 0u) << "no cycle found every owned warp blocked";
}

TEST(SmDifferential, PlantedBusyIgnoringPickerDiverges) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    WarpHarness h(96, seed);
    RefScheduler ref(SchedulerKind::kGto, 0, 1);
    std::uint32_t last = kInvalidIndex;
    bool diverged = false;
    for (Cycle now = 0; now < 200000 && !h.AllFinished() && !diverged;
         ++now) {
      h.Wake();
      const std::uint32_t want = ref.Pick(h.warps(), now);
      diverged = want != PickIgnoringBusy(h.warps(), h.finished(),
                                          h.wait_mem(), 0, 1, last);
      if (want == kInvalidIndex) continue;
      h.Issue(want, now);
      ref.OnIssued(want);
      last = want;
    }
    EXPECT_TRUE(diverged) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Drain state of whole SMs
// ---------------------------------------------------------------------------

std::unique_ptr<Program> MixedKernel() {
  ProgramBuilder b(12);
  b.Alu(3)
      .LoadStream(8)
      .Sfu(2)
      .LoadPrivate(24, 4)
      .StoreStream(16)
      .LoadIndirect(1 << 12, 0.5, 3, 2)
      .Alu(1);
  return b.Build();
}

TEST(SmDifferential, DrainChecksMatchWarpWalk) {
  const auto program = MixedKernel();
  struct Case {
    std::uint32_t warps;
    std::uint32_t schedulers;
    SchedulerKind kind;
  };
  for (const Case c : {Case{6, 2, SchedulerKind::kGto},
                       Case{48, 2, SchedulerKind::kGto},
                       Case{65, 3, SchedulerKind::kLrr},
                       Case{96, 4, SchedulerKind::kGto}}) {
    SimConfig cfg;
    cfg.num_cores = 2;
    cfg.num_partitions = 2;
    cfg.core.max_warps = 96;
    cfg.core.num_schedulers = c.schedulers;
    GpuSimulator gpu(cfg, program.get(), c.warps, c.kind);
    std::uint64_t steps = 0, drained_steps = 0;
    for (; steps < 2000000 && !gpu.Done(); ++steps) {
      gpu.Step();
      for (const SmCore& core : gpu.cores()) {
        ASSERT_EQ(core.Finished(), reference::RefFinished(core.warps()))
            << "warps=" << c.warps << " step " << steps;
        ASSERT_EQ(core.Drained(),
                  reference::RefDrained(core.warps(), core.ldst(),
                                        core.l1d().HasOutgoing()))
            << "warps=" << c.warps << " step " << steps;
        ASSERT_EQ(robust::CheckWarpMasks(core), "")
            << "warps=" << c.warps << " step " << steps;
        drained_steps += core.Drained();
      }
    }
    ASSERT_TRUE(gpu.Done()) << "warps=" << c.warps;
    EXPECT_GT(drained_steps, 0u);
    EXPECT_GT(gpu.Collect().l1d_accesses, 0u);
  }
}

}  // namespace
}  // namespace dlpsim
