#include "core/policies.h"

#include <gtest/gtest.h>

#include "cache/tag_array.h"

namespace dlpsim {
namespace {

L1DConfig SmallConfig(PolicyKind kind) {
  L1DConfig cfg;
  cfg.geom.sets = 4;
  cfg.geom.ways = 2;
  cfg.geom.index = IndexFunction::kLinear;
  cfg.policy = kind;
  return cfg;
}

void FillWay(TagArray& tda, std::uint32_t set, std::uint32_t way, Addr block) {
  tda.Reserve(set, way, block, 0);
  tda.Fill(set, block);
}

TEST(MakePolicy, ProducesRequestedKinds) {
  for (PolicyKind k :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    auto p = MakePolicy(SmallConfig(k));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), k);
  }
}

TEST(BaselinePolicy, LruVictimAndStallWhenAllReserved) {
  auto cfg = SmallConfig(PolicyKind::kBaseline);
  TagArray tda(cfg.geom);
  BaselinePolicy policy;

  // Empty set: invalid way chosen.
  EXPECT_EQ(policy.PickVictim(tda, 0).kind, VictimChoice::Kind::kWay);

  FillWay(tda, 0, 0, 0);
  FillWay(tda, 0, 1, 4);
  const VictimChoice c = policy.PickVictim(tda, 0);
  ASSERT_EQ(c.kind, VictimChoice::Kind::kWay);
  EXPECT_EQ(c.way, 0u);  // LRU

  // All reserved: stall.
  tda.Reserve(1, 0, 1, 0);
  tda.Reserve(1, 1, 5, 0);
  EXPECT_EQ(policy.PickVictim(tda, 1).kind, VictimChoice::Kind::kStall);
  EXPECT_FALSE(policy.BypassOnResourceStall());
}

TEST(StallBypassPolicy, BypassesInsteadOfStalling) {
  auto cfg = SmallConfig(PolicyKind::kStallBypass);
  TagArray tda(cfg.geom);
  StallBypassPolicy policy;
  tda.Reserve(0, 0, 0, 0);
  tda.Reserve(0, 1, 4, 0);
  EXPECT_EQ(policy.PickVictim(tda, 0).kind, VictimChoice::Kind::kBypass);
  EXPECT_TRUE(policy.BypassOnResourceStall());
}

class DlpPolicyTest : public ::testing::Test {
 protected:
  DlpPolicyTest()
      : cfg_(SmallConfig(PolicyKind::kDlp)), tda_(cfg_.geom), policy_(cfg_) {}

  L1DConfig cfg_;
  TagArray tda_;
  DlpPolicy policy_;
};

TEST_F(DlpPolicyTest, SetQueryDecrementsProtectedLife) {
  FillWay(tda_, 0, 0, 0);
  tda_.At(0, 0).protected_life = 3;
  policy_.OnSetQuery(tda_.SetView(0));
  EXPECT_EQ(tda_.At(0, 0).protected_life, 2u);
  policy_.OnSetQuery(tda_.SetView(0));
  policy_.OnSetQuery(tda_.SetView(0));
  policy_.OnSetQuery(tda_.SetView(0));  // saturates at 0
  EXPECT_EQ(tda_.At(0, 0).protected_life, 0u);
}

TEST_F(DlpPolicyTest, HitTransfersOwnershipAndRefreshesPl) {
  // Paper §4.1.1: a hit is credited to the *previous* owner instruction,
  // then ownership moves to the hitting instruction.
  FillWay(tda_, 0, 0, 0);
  CacheLine& line = tda_.At(0, 0);
  line.insn_id = 5;

  const Pc pc = 0x40;
  const std::uint32_t id = policy_.pdpt()->IndexOf(pc);
  policy_.OnLoadHit(line, pc);
  EXPECT_EQ(policy_.pdpt()->tda_hits(5), 1u);  // credited to old owner
  EXPECT_EQ(line.insn_id, id);                 // ownership transferred
  EXPECT_EQ(line.protected_life, policy_.pdpt()->Pd(id));

  // A second hit from another PC credits `id`, not 5.
  const Pc pc2 = 0x41;
  policy_.OnLoadHit(line, pc2);
  EXPECT_EQ(policy_.pdpt()->tda_hits(id), id == 5 ? 2u : 1u);
  EXPECT_EQ(line.insn_id, policy_.pdpt()->IndexOf(pc2));
}

TEST_F(DlpPolicyTest, EvictionFeedsVtaAndMissConsumesIt) {
  FillWay(tda_, 2, 0, 42);
  CacheLine& line = tda_.At(2, 0);
  line.insn_id = 9;
  policy_.OnEviction(2, line);
  EXPECT_TRUE(policy_.vta()->Contains(2, 42));

  // A later miss to the same block credits insn 9 in the PDPT.
  policy_.OnLoadMiss(2, 42, /*pc=*/0);
  EXPECT_EQ(policy_.pdpt()->vta_hits(9), 1u);
  EXPECT_FALSE(policy_.vta()->Contains(2, 42));  // consumed
}

// The three protection counters the metrics dump publishes
// (cache.pl_decrements, cache.vta_hits, cache.pd_recomputes), asserted
// exactly: small-scale figure grids never exercise some of them.
TEST_F(DlpPolicyTest, PlDecrementsCountEveryDecayStep) {
  FillWay(tda_, 0, 0, 0);
  FillWay(tda_, 0, 1, 4);
  tda_.At(0, 0).protected_life = 3;
  tda_.At(0, 1).protected_life = 1;
  const ProtectionStats& stats = *policy_.protection_stats();
  EXPECT_EQ(stats.pl_decrements, 0u);

  policy_.OnSetQuery(tda_.SetView(0));  // 3 -> 2 and 1 -> 0
  EXPECT_EQ(stats.pl_decrements, 2u);
  policy_.OnSetQuery(tda_.SetView(0));  // 2 -> 1; way 1 stays at 0
  policy_.OnSetQuery(tda_.SetView(0));  // 1 -> 0
  EXPECT_EQ(stats.pl_decrements, 4u);
  policy_.OnSetQuery(tda_.SetView(0));  // nothing left to decay
  policy_.OnSetQuery(tda_.SetView(1));  // empty set
  EXPECT_EQ(stats.pl_decrements, 4u);
  EXPECT_EQ(stats.vta_hits, 0u);
  EXPECT_EQ(stats.pd_recomputes, 0u);
}

TEST_F(DlpPolicyTest, VtaHitsCountEvictThenMissOnTheSameBlock) {
  FillWay(tda_, 2, 0, 42);
  policy_.OnEviction(2, tda_.At(2, 0));
  const ProtectionStats& stats = *policy_.protection_stats();

  policy_.OnLoadMiss(2, 7, /*pc=*/0);   // never evicted: no VTA hit
  EXPECT_EQ(stats.vta_hits, 0u);
  policy_.OnLoadMiss(2, 42, /*pc=*/0);  // evict-then-miss: one hit
  EXPECT_EQ(stats.vta_hits, 1u);
  policy_.OnLoadMiss(2, 42, /*pc=*/0);  // the hit consumed the entry
  EXPECT_EQ(stats.vta_hits, 1u);
  EXPECT_EQ(stats.pl_decrements, 0u);
}

TEST_F(DlpPolicyTest, PdRecomputesCountSampleWindows) {
  // A window ends after cfg.prot.sample_accesses accesses (the cycle cap
  // never fires here: every access is at cycle 0).
  const std::uint32_t window = cfg_.prot.sample_accesses;
  const ProtectionStats& stats = *policy_.protection_stats();
  for (std::uint32_t i = 0; i + 1 < window; ++i) policy_.OnAccessSampled(0);
  EXPECT_EQ(stats.pd_recomputes, 0u);
  policy_.OnAccessSampled(0);
  EXPECT_EQ(stats.pd_recomputes, 1u);
  EXPECT_EQ(policy_.pdpt()->samples_taken, 1u);
  for (std::uint32_t i = 0; i < window; ++i) policy_.OnAccessSampled(0);
  EXPECT_EQ(stats.pd_recomputes, 2u);
}

TEST_F(DlpPolicyTest, ResetKeepsProtectionCounters) {
  // Like CacheStats, the counters cover the cache's lifetime; Reset()
  // between kernels clears the tables, not the telemetry.
  FillWay(tda_, 0, 0, 42);
  tda_.At(0, 0).protected_life = 1;
  policy_.OnSetQuery(tda_.SetView(0));
  policy_.OnEviction(0, tda_.At(0, 0));
  policy_.OnLoadMiss(0, 42, /*pc=*/0);
  policy_.Reset();
  EXPECT_EQ(policy_.protection_stats()->pl_decrements, 1u);
  EXPECT_EQ(policy_.protection_stats()->vta_hits, 1u);
}

TEST(ProtectionStats, OnlyProtectedLifePoliciesCount) {
  EXPECT_EQ(BaselinePolicy().protection_stats(), nullptr);
  EXPECT_EQ(StallBypassPolicy().protection_stats(), nullptr);
  GlobalProtectionPolicy gp(SmallConfig(PolicyKind::kGlobalProtection));
  ASSERT_NE(gp.protection_stats(), nullptr);
  EXPECT_EQ(gp.protection_stats()->pl_decrements, 0u);
}

TEST_F(DlpPolicyTest, ReserveStampsInsnIdAndPd) {
  const Pc pc = 0x80;
  tda_.Reserve(0, 0, 7, pc);
  policy_.OnReserve(tda_.At(0, 0), pc);
  EXPECT_EQ(tda_.At(0, 0).insn_id, policy_.pdpt()->IndexOf(pc));
  EXPECT_EQ(tda_.At(0, 0).protected_life, policy_.PdForPc(pc));
}

TEST_F(DlpPolicyTest, VictimSelectionRespectsProtection) {
  FillWay(tda_, 0, 0, 0);
  FillWay(tda_, 0, 1, 4);
  tda_.At(0, 0).protected_life = 2;

  // Way 1 unprotected -> chosen even though way 0 is LRU.
  VictimChoice c = policy_.PickVictim(tda_, 0);
  ASSERT_EQ(c.kind, VictimChoice::Kind::kWay);
  EXPECT_EQ(c.way, 1u);

  // Both protected -> bypass (paper §4.1.1).
  tda_.At(0, 1).protected_life = 1;
  EXPECT_EQ(policy_.PickVictim(tda_, 0).kind, VictimChoice::Kind::kBypass);

  // All reserved (fills in flight) -> stall like the baseline.
  tda_.Reserve(1, 0, 1, 0);
  tda_.Reserve(1, 1, 5, 0);
  EXPECT_EQ(policy_.PickVictim(tda_, 1).kind, VictimChoice::Kind::kStall);
}

TEST_F(DlpPolicyTest, BypassedQueriesEventuallyReleaseProtectedSets) {
  // Paper §4.1.1: entries are not permanently locked because bypassed
  // requests also consume PL values.
  FillWay(tda_, 0, 0, 0);
  FillWay(tda_, 0, 1, 4);
  tda_.At(0, 0).protected_life = 3;
  tda_.At(0, 1).protected_life = 3;
  int bypasses = 0;
  while (policy_.PickVictim(tda_, 0).kind == VictimChoice::Kind::kBypass) {
    policy_.OnSetQuery(tda_.SetView(0));  // the bypassed access still queries
    ++bypasses;
    ASSERT_LT(bypasses, 10);
  }
  EXPECT_EQ(bypasses, 3);
  EXPECT_EQ(policy_.PickVictim(tda_, 0).kind, VictimChoice::Kind::kWay);
}

TEST_F(DlpPolicyTest, MergedMissRewritesPlField) {
  tda_.Reserve(0, 0, 3, 0);
  CacheLine& line = tda_.At(0, 0);
  line.insn_id = 7;
  const Pc pc = 0x11;
  policy_.OnMergedMiss(line, pc);
  EXPECT_EQ(line.insn_id, policy_.pdpt()->IndexOf(pc));
  // No TDA hit is credited for a merged miss (data not in cache yet).
  EXPECT_EQ(policy_.pdpt()->global_tda_hits(), 0u);
}

TEST_F(DlpPolicyTest, ResetClearsVtaAndPdpt) {
  FillWay(tda_, 0, 0, 42);
  policy_.OnEviction(0, tda_.At(0, 0));
  policy_.Reset();
  EXPECT_FALSE(policy_.vta()->Contains(0, 42));
  EXPECT_EQ(policy_.pdpt()->global_vta_hits(), 0u);
}

TEST(GlobalProtectionPolicy, UsesSingleTableEntry) {
  auto cfg = SmallConfig(PolicyKind::kGlobalProtection);
  GlobalProtectionPolicy policy(cfg);
  EXPECT_EQ(policy.pdpt()->size(), 1u);
  // All PCs share one PD.
  EXPECT_EQ(policy.pdpt()->IndexOf(0x1234), 0u);
  EXPECT_EQ(policy.pdpt()->IndexOf(0x9999), 0u);
}

TEST(GlobalProtectionPolicy, VtaMirrorsTdaGeometry) {
  auto cfg = SmallConfig(PolicyKind::kGlobalProtection);
  GlobalProtectionPolicy policy(cfg);
  EXPECT_EQ(policy.vta()->sets(), cfg.geom.sets);
  EXPECT_EQ(policy.vta()->ways(), cfg.geom.ways);
}

}  // namespace
}  // namespace dlpsim
