#include "sim/config.h"

#include <gtest/gtest.h>

#include <string>

#include "gpu/simulator.h"
#include "workloads/registry.h"

namespace dlpsim {
namespace {

TEST(SimConfig, BaselineMatchesTable1) {
  const SimConfig cfg = SimConfig::Baseline16KB();
  EXPECT_EQ(cfg.num_cores, 16u);
  EXPECT_EQ(cfg.core.warp_size, 32u);
  EXPECT_EQ(cfg.core.max_warps, 48u);
  EXPECT_EQ(cfg.core.num_schedulers, 2u);
  EXPECT_EQ(cfg.l1d.geom.sets, 32u);
  EXPECT_EQ(cfg.l1d.geom.ways, 4u);
  EXPECT_EQ(cfg.l1d.geom.size_bytes(), 16u * 1024u);
  EXPECT_EQ(cfg.l1d.geom.index, IndexFunction::kHash);
  EXPECT_EQ(cfg.num_partitions, 12u);
  EXPECT_EQ(cfg.l2.geom.sets, 64u);
  EXPECT_EQ(cfg.l2.geom.ways, 8u);
  EXPECT_EQ(cfg.l2.geom.index, IndexFunction::kLinear);
  // 768KB total L2 over 12 partitions.
  EXPECT_EQ(cfg.l2.geom.size_bytes() * cfg.num_partitions, 768u * 1024u);
  EXPECT_EQ(cfg.dram.banks, 6u);
  EXPECT_DOUBLE_EQ(cfg.core_mhz, 650.0);
  EXPECT_DOUBLE_EQ(cfg.icnt_mhz, 650.0);
  EXPECT_DOUBLE_EQ(cfg.mem_mhz, 924.0);
}

TEST(SimConfig, Cache32KBDoublesWaysOnly) {
  const SimConfig cfg = SimConfig::Cache32KB();
  EXPECT_EQ(cfg.l1d.geom.sets, 32u);
  EXPECT_EQ(cfg.l1d.geom.ways, 8u);
  EXPECT_EQ(cfg.l1d.geom.size_bytes(), 32u * 1024u);
}

TEST(SimConfig, Cache64KBQuadruplesWaysOnly) {
  const SimConfig cfg = SimConfig::Cache64KB();
  EXPECT_EQ(cfg.l1d.geom.sets, 32u);
  EXPECT_EQ(cfg.l1d.geom.ways, 16u);
  EXPECT_EQ(cfg.l1d.geom.size_bytes(), 64u * 1024u);
}

TEST(SimConfig, WithPolicySetsOnlyPolicy) {
  const SimConfig cfg = SimConfig::WithPolicy(PolicyKind::kDlp);
  EXPECT_EQ(cfg.l1d.policy, PolicyKind::kDlp);
  EXPECT_EQ(cfg.l1d.geom.size_bytes(), 16u * 1024u);
}

TEST(SimConfig, ProtectionDefaultsMatchPaper) {
  const ProtectionConfig prot;
  EXPECT_EQ(prot.sample_accesses, 200u);   // §4.1.4
  EXPECT_EQ(prot.pdpt_entries, 128u);      // §4.1.3
  EXPECT_EQ(prot.insn_id_bits, 7u);        // §4.3
  EXPECT_EQ(prot.pd_bits, 4u);             // §4.3
  EXPECT_EQ(prot.pd_max(), 15u);
  EXPECT_EQ(prot.tda_hit_bits, 8u);        // §4.3
  EXPECT_EQ(prot.vta_hit_bits, 10u);       // §4.3
}

TEST(SimConfig, PartitionInterleavingCoversAllPartitions) {
  const SimConfig cfg;
  std::vector<int> seen(cfg.num_partitions, 0);
  for (Addr a = 0; a < 64 * 1024; a += cfg.partition_chunk_bytes) {
    ++seen[cfg.PartitionOf(a)];
  }
  for (std::uint32_t p = 0; p < cfg.num_partitions; ++p) {
    EXPECT_GT(seen[p], 0) << "partition " << p << " never addressed";
  }
}

TEST(SimConfig, PartitionStableWithinChunk) {
  const SimConfig cfg;
  const Addr base = 7 * cfg.partition_chunk_bytes;
  const PartitionId p = cfg.PartitionOf(base);
  for (Addr off = 0; off < cfg.partition_chunk_bytes; ++off) {
    EXPECT_EQ(cfg.PartitionOf(base + off), p);
  }
}

TEST(PolicyKindNames, AllDistinct) {
  EXPECT_STREQ(ToString(PolicyKind::kBaseline), "Baseline");
  EXPECT_STREQ(ToString(PolicyKind::kStallBypass), "Stall-Bypass");
  EXPECT_STREQ(ToString(PolicyKind::kGlobalProtection), "Global-Protection");
  EXPECT_STREQ(ToString(PolicyKind::kDlp), "DLP");
}


TEST(ConfigValidation, PresetsAreValid) {
  EXPECT_TRUE(SimConfig::Baseline16KB().Validate().empty());
  EXPECT_TRUE(SimConfig::Cache32KB().Validate().empty());
  EXPECT_TRUE(SimConfig::Cache64KB().Validate().empty());
  for (PolicyKind p : {PolicyKind::kBaseline, PolicyKind::kStallBypass,
                       PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    EXPECT_TRUE(SimConfig::WithPolicy(p).Validate().empty());
  }
}

TEST(ConfigValidation, ReportsStructuredIssuesWithFieldNames) {
  SimConfig cfg;
  cfg.l1d.geom.sets = 0;          // not a nonzero power of two
  cfg.l1d.mshr_entries = 0;
  cfg.num_cores = 0;
  const std::vector<ConfigIssue> issues = cfg.Validate();
  ASSERT_GE(issues.size(), 3u);
  bool saw_sets = false;
  bool saw_mshr = false;
  bool saw_cores = false;
  for (const ConfigIssue& issue : issues) {
    if (issue.field.find("sets") != std::string::npos) saw_sets = true;
    if (issue.field.find("mshr_entries") != std::string::npos) saw_mshr = true;
    if (issue.field == "num_cores") saw_cores = true;
    EXPECT_FALSE(issue.message.empty()) << issue.field;
  }
  EXPECT_TRUE(saw_sets);
  EXPECT_TRUE(saw_mshr);
  EXPECT_TRUE(saw_cores);
}

TEST(ConfigValidation, ValidateOrThrowCarriesIssueList) {
  SimConfig cfg;
  cfg.l1d.geom.ways = 0;
  try {
    cfg.ValidateOrThrow();
    FAIL() << "invalid config accepted";
  } catch (const ConfigError& e) {
    EXPECT_FALSE(e.issues().empty());
    EXPECT_NE(std::string(e.what()).find("ways"), std::string::npos);
  }
}

TEST(ConfigValidation, WriteBackNeedsTwoMissQueueSlots) {
  SimConfig cfg;
  cfg.l1d.write_policy = WritePolicy::kWriteBackOnHit;
  cfg.l1d.miss_queue_entries = 1;  // dirty-victim livelock guard
  EXPECT_FALSE(cfg.Validate().empty());
  cfg.l1d.miss_queue_entries = 2;
  EXPECT_TRUE(cfg.Validate().empty());
}

TEST(ConfigValidation, GpuSimulatorRejectsBadConfigBeforeConstruction) {
  SimConfig cfg;
  cfg.l1d.geom.line_bytes = 100;  // not a power of two
  ProgramBuilder b(1);
  b.Alu(1);
  auto prog = b.Build();
  EXPECT_THROW(GpuSimulator(cfg, prog.get(), 1), ConfigError);
}

TEST(ConfigValidation, GpuSimulatorRejectsBadWarpCount) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.num_partitions = 1;
  ProgramBuilder b(1);
  b.Alu(1);
  auto prog = b.Build();
  for (std::uint32_t warps : {0u, cfg.core.max_warps + 1, 1000u}) {
    try {
      GpuSimulator gpu(cfg, prog.get(), warps);
      FAIL() << warps << " warps per SM accepted";
    } catch (const ConfigError& e) {
      ASSERT_EQ(e.issues().size(), 1u);
      EXPECT_EQ(e.issues()[0].field, "warps_per_sm");
      EXPECT_NE(std::string(e.what()).find(std::to_string(warps)),
                std::string::npos);
    }
  }
  // Both ends of the valid range construct.
  EXPECT_NO_THROW(GpuSimulator(cfg, prog.get(), 1));
  EXPECT_NO_THROW(GpuSimulator(cfg, prog.get(), cfg.core.max_warps));
}

// CanonicalText must react to edits in every layer of SimConfig --
// otherwise two genuinely different configurations could share a bench
// result-cache entry. One representative field per sub-struct.
TEST(CanonicalTextTest, CoversEveryConfigLayer) {
  const SimConfig base;
  const std::string t0 = CanonicalText(base);
  EXPECT_EQ(t0.rfind("config_format v1\n", 0), 0u);
  EXPECT_EQ(t0, CanonicalText(base));  // pure function

  auto differs = [&](auto mutate, const char* what) {
    SimConfig c;
    mutate(c);
    EXPECT_NE(CanonicalText(c), t0) << "CanonicalText blind to " << what;
  };
  differs([](SimConfig& c) { c.num_cores += 1; }, "num_cores");
  differs([](SimConfig& c) { c.core.max_warps += 1; }, "core.*");
  differs([](SimConfig& c) { c.l1d.geom.ways *= 2; }, "l1d.geom.*");
  differs([](SimConfig& c) { c.l1d.mshr_entries += 1; }, "l1d mshr");
  differs([](SimConfig& c) { c.l1d.prot.pdpt_entries += 1; }, "l1d.prot.*");
  differs([](SimConfig& c) { c.l2.latency += 1; }, "l2.*");
  differs([](SimConfig& c) { c.dram.banks *= 2; }, "dram.*");
  differs([](SimConfig& c) { c.icnt.latency += 1; }, "icnt.*");
  differs([](SimConfig& c) { c.mem_mhz += 1; }, "clocks");
  differs([](SimConfig& c) { c.max_core_cycles += 1; }, "max_core_cycles");
}

}  // namespace
}  // namespace dlpsim
