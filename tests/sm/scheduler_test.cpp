#include "sm/scheduler.h"

#include <gtest/gtest.h>

#include "reference_sm.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

// Picks with masks walked from the warps' current state, as SmCore keeps
// them.
std::uint32_t PickFrom(const WarpScheduler& sched,
                       const std::vector<Warp>& warps, Cycle now) {
  const reference::WalkedMasks m = reference::WalkMasks(warps);
  return sched.Pick(warps, m.finished, m.wait_mem, now);
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() {
    ProgramBuilder b(100);
    b.Alu(10);
    prog_ = b.Build();
    for (std::uint32_t i = 0; i < 6; ++i) {
      warps_.emplace_back(i, i, prog_.get());
    }
  }

  std::unique_ptr<Program> prog_;
  std::vector<Warp> warps_;
};

TEST_F(SchedulerTest, GtoPicksOldestInitially) {
  WarpScheduler sched(SchedulerKind::kGto, 0, 1, 6);
  EXPECT_EQ(PickFrom(sched, warps_, 0), 0u);
}

TEST_F(SchedulerTest, GtoStaysGreedyOnLastIssued) {
  WarpScheduler sched(SchedulerKind::kGto, 0, 1, 6);
  sched.OnIssued(3);
  EXPECT_EQ(PickFrom(sched, warps_, 0), 3u);  // greedy on warp 3
  // When warp 3 blocks, fall back to the oldest ready warp.
  warps_[3].BlockOnMem(0);
  EXPECT_EQ(PickFrom(sched, warps_, 0), 0u);
}

TEST_F(SchedulerTest, GtoHonorsOwnershipPartition) {
  // Two schedulers: even warps belong to 0, odd to 1.
  WarpScheduler s0(SchedulerKind::kGto, 0, 2, 6);
  WarpScheduler s1(SchedulerKind::kGto, 1, 2, 6);
  EXPECT_EQ(PickFrom(s0, warps_, 0), 0u);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 1u);
  warps_[0].BlockOnMem(0);
  warps_[1].BlockOnMem(0);
  EXPECT_EQ(PickFrom(s0, warps_, 0), 2u);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 3u);
}

TEST_F(SchedulerTest, GtoReturnsInvalidWhenNothingReady) {
  WarpScheduler sched(SchedulerKind::kGto, 0, 1, 6);
  for (Warp& w : warps_) w.BlockOnMem(0);
  EXPECT_EQ(PickFrom(sched, warps_, 0), kInvalidIndex);
}

TEST_F(SchedulerTest, LrrRotatesThroughWarps) {
  WarpScheduler sched(SchedulerKind::kLrr, 0, 1, 6);
  std::vector<std::uint32_t> picks;
  for (int i = 0; i < 6; ++i) {
    const std::uint32_t w = PickFrom(sched, warps_, 0);
    picks.push_back(w);
    sched.OnIssued(w);
  }
  EXPECT_EQ(picks, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
  // Wraps around.
  EXPECT_EQ(PickFrom(sched, warps_, 0), 0u);
}

TEST_F(SchedulerTest, LrrSkipsBlockedWarps) {
  WarpScheduler sched(SchedulerKind::kLrr, 0, 1, 6);
  warps_[1].BlockOnMem(0);
  sched.OnIssued(0);
  EXPECT_EQ(PickFrom(sched, warps_, 0), 2u);
}

TEST_F(SchedulerTest, LrrHonorsPartition) {
  WarpScheduler s1(SchedulerKind::kLrr, 1, 2, 6);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 1u);
  s1.OnIssued(1);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 3u);
  s1.OnIssued(3);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 5u);
  s1.OnIssued(5);
  EXPECT_EQ(PickFrom(s1, warps_, 0), 1u);
}

TEST_F(SchedulerTest, GtoGreedyEndsWhenWarpFinishes) {
  WarpScheduler sched(SchedulerKind::kGto, 0, 1, 2);
  ProgramBuilder b(1);
  b.Alu(1);
  auto tiny = b.Build();
  std::vector<Warp> warps;
  warps.emplace_back(0, 0, tiny.get());
  warps.emplace_back(1, 1, tiny.get());
  EXPECT_EQ(PickFrom(sched, warps, 0), 0u);
  warps[0].AdvanceIssue(0);
  sched.OnIssued(0);
  ASSERT_TRUE(warps[0].Finished());
  EXPECT_EQ(PickFrom(sched, warps, 1), 1u);
}

}  // namespace
}  // namespace dlpsim
