#include "core/pdpt.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

ProtectionConfig DefaultProt() { return ProtectionConfig{}; }

PdpTable MakeTable(std::uint32_t nasc = 4) {
  return PdpTable(DefaultProt(), nasc);
}

TEST(SaturatingCounter, SaturatesAtWidth) {
  SaturatingCounter c(2);  // max 3
  EXPECT_EQ(c.max(), 3u);
  for (int i = 0; i < 10; ++i) c.Increment();
  EXPECT_EQ(c.value(), 3u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(SaturatingCounter, PaperWidths) {
  SaturatingCounter tda(8);
  SaturatingCounter vta(10);
  EXPECT_EQ(tda.max(), 255u);
  EXPECT_EQ(vta.max(), 1023u);
}

TEST(SaturatingCounter, WideCounterDoesNotOverflowShift) {
  SaturatingCounter c(32);
  EXPECT_EQ(c.max(), 0xffffffffu);
}

TEST(Pdpt, IndexingIsStableAndInRange) {
  PdpTable t = MakeTable();
  for (Pc pc = 0; pc < 1000; ++pc) {
    const std::uint32_t id = t.IndexOf(pc);
    EXPECT_LT(id, t.size());
    EXPECT_EQ(id, t.IndexOf(pc));
  }
}

TEST(Pdpt, InitialPdsAreZero) {
  PdpTable t = MakeTable();
  for (std::uint32_t i = 0; i < t.size(); ++i) EXPECT_EQ(t.Pd(i), 0u);
}

TEST(Pdpt, StepAdjustmentBuckets) {
  // Paper §4.2: HitVTA compared against 4x, 2x, 1x and 1/2x HitTDA;
  // adjustments 4*Nasc, 2*Nasc, Nasc, Nasc/2, upper limit 4*Nasc.
  PdpTable t = MakeTable(4);
  EXPECT_EQ(t.StepAdjustment(40, 10), 16u);   // >= 4x
  EXPECT_EQ(t.StepAdjustment(39, 10), 8u);    // >= 2x
  EXPECT_EQ(t.StepAdjustment(20, 10), 8u);    // == 2x
  EXPECT_EQ(t.StepAdjustment(19, 10), 4u);    // >= 1x
  EXPECT_EQ(t.StepAdjustment(10, 10), 4u);    // == 1x
  EXPECT_EQ(t.StepAdjustment(9, 10), 2u);     // >= 1/2 x -> Nasc/2
  EXPECT_EQ(t.StepAdjustment(5, 10), 2u);     // == 1/2 x
  EXPECT_EQ(t.StepAdjustment(4, 10), 0u);     // below 1/2 x
  EXPECT_EQ(t.StepAdjustment(0, 10), 0u);     // no VTA hits
  // No TDA hits at all: maximally under-protected.
  EXPECT_EQ(t.StepAdjustment(1, 0), 16u);
}

TEST(Pdpt, IncreasePathRaisesPerInstructionPds) {
  PdpTable t = MakeTable(4);
  const std::uint32_t hot = 3;
  const std::uint32_t cold = 9;
  // hot: VTA-dominated; cold: nothing.
  for (int i = 0; i < 10; ++i) t.CreditVtaHit(hot);
  t.CreditTdaHit(hot);
  EXPECT_EQ(t.EndSample(), PdpTable::UpdatePath::kIncrease);
  EXPECT_EQ(t.Pd(hot), 15u);  // 4*Nasc = 16 clamped to pd_max
  EXPECT_EQ(t.Pd(cold), 0u);
}

TEST(Pdpt, IncreaseClampsAtPdMax) {
  PdpTable t = MakeTable(4);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) t.CreditVtaHit(0);
    t.EndSample();
  }
  EXPECT_EQ(t.Pd(0), 15u);
}

TEST(Pdpt, DecreasePathLowersAllPds) {
  PdpTable t = MakeTable(4);
  for (int i = 0; i < 8; ++i) t.CreditVtaHit(0);
  t.EndSample();
  ASSERT_EQ(t.Pd(0), 15u);
  // TDA-dominated sample: global VTA < TDA/2.
  for (int i = 0; i < 10; ++i) t.CreditTdaHit(5);
  EXPECT_EQ(t.EndSample(), PdpTable::UpdatePath::kDecrease);
  EXPECT_EQ(t.Pd(0), 11u);  // -Nasc
  // Decrease applies to every entry, clamped at zero.
  EXPECT_EQ(t.Pd(5), 0u);
}

TEST(Pdpt, HoldRegionKeepsPds) {
  PdpTable t = MakeTable(4);
  for (int i = 0; i < 8; ++i) t.CreditVtaHit(0);
  t.EndSample();
  const std::uint32_t before = t.Pd(0);
  // VTA == TDA: not an increase (needs >), not a decrease (needs < 1/2).
  for (int i = 0; i < 6; ++i) {
    t.CreditTdaHit(1);
    t.CreditVtaHit(2);
  }
  EXPECT_EQ(t.EndSample(), PdpTable::UpdatePath::kHold);
  EXPECT_EQ(t.Pd(0), before);
}

TEST(Pdpt, BoundaryExactlyHalfIsHold) {
  PdpTable t = MakeTable(4);
  // VTA = 5, TDA = 10: "less than 1/2" is false -> hold.
  for (int i = 0; i < 10; ++i) t.CreditTdaHit(0);
  for (int i = 0; i < 5; ++i) t.CreditVtaHit(0);
  EXPECT_EQ(t.EndSample(), PdpTable::UpdatePath::kHold);
}

TEST(Pdpt, SampleResetsCounters) {
  PdpTable t = MakeTable();
  t.CreditTdaHit(0);
  t.CreditVtaHit(1);
  EXPECT_EQ(t.global_tda_hits(), 1u);
  EXPECT_EQ(t.global_vta_hits(), 1u);
  t.EndSample();
  EXPECT_EQ(t.global_tda_hits(), 0u);
  EXPECT_EQ(t.global_vta_hits(), 0u);
  EXPECT_EQ(t.tda_hits(0), 0u);
  EXPECT_EQ(t.vta_hits(1), 0u);
}

TEST(Pdpt, PerEntryCountersSaturateAtPaperWidths) {
  PdpTable t = MakeTable();
  for (int i = 0; i < 2000; ++i) {
    t.CreditTdaHit(0);
    t.CreditVtaHit(0);
  }
  EXPECT_EQ(t.tda_hits(0), 255u);   // 8 bits
  EXPECT_EQ(t.vta_hits(0), 1023u);  // 10 bits
  // Global counters are exact (used for the path decision).
  EXPECT_EQ(t.global_tda_hits(), 2000u);
}

TEST(Pdpt, SampleStatisticsTracked) {
  PdpTable t = MakeTable();
  for (int i = 0; i < 4; ++i) t.CreditVtaHit(0);
  t.EndSample();
  for (int i = 0; i < 4; ++i) t.CreditTdaHit(0);
  t.EndSample();
  t.EndSample();  // empty: hold
  EXPECT_EQ(t.samples_taken, 3u);
  EXPECT_EQ(t.increase_samples, 1u);
  EXPECT_EQ(t.decrease_samples, 1u);
}

TEST(Pdpt, ClearResetsPdsAndCounters) {
  PdpTable t = MakeTable();
  for (int i = 0; i < 4; ++i) t.CreditVtaHit(0);
  t.EndSample();
  t.Clear();
  EXPECT_EQ(t.Pd(0), 0u);
  EXPECT_EQ(t.global_vta_hits(), 0u);
}

TEST(Pdpt, SingleEntryTableModelsGlobalProtection) {
  ProtectionConfig prot;
  prot.pdpt_entries = 1;
  prot.insn_id_bits = 0;
  PdpTable t(prot, 4);
  // Every PC maps to entry 0.
  for (Pc pc = 0; pc < 500; ++pc) EXPECT_EQ(t.IndexOf(pc), 0u);
}

// --- SampleWindow ---

TEST(SampleWindow, EndsAfterConfiguredAccesses) {
  ProtectionConfig prot;
  prot.sample_accesses = 5;
  prot.sample_max_cycles = 1000000;
  SampleWindow w(prot);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(w.OnAccess(i));
  EXPECT_TRUE(w.OnAccess(4));
  w.Restart(5);
  EXPECT_FALSE(w.OnAccess(6));
}

TEST(SampleWindow, EndsAfterCycleCapForSparseAccesses) {
  // Paper §4.1.4: CS applications with few loads must not sample forever.
  ProtectionConfig prot;
  prot.sample_accesses = 200;
  prot.sample_max_cycles = 100;
  SampleWindow w(prot);
  EXPECT_FALSE(w.OnAccess(0));
  EXPECT_TRUE(w.OnAccess(150));  // cycle cap elapsed
}

TEST(SampleWindow, PaperDefaultIs200Accesses) {
  ProtectionConfig prot;
  SampleWindow w(prot);
  for (std::uint32_t i = 0; i < 199; ++i) {
    EXPECT_FALSE(w.OnAccess(i)) << i;
  }
  EXPECT_TRUE(w.OnAccess(199));
}

}  // namespace
}  // namespace dlpsim
