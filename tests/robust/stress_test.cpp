// Randomized robustness stress: seeded random configurations and
// workloads, every policy, run under the invariant checker and a
// watchdog. Nothing may trip, throw, or fail to terminate.
#include <gtest/gtest.h>

#include "gpu/simulator.h"
#include "robust/invariants.h"
#include "robust/watchdog.h"
#include "sim/rng.h"
#include "workloads/registry.h"

namespace dlpsim::robust {
namespace {

/// A valid-but-randomized small machine drawn from `rng`. Stays inside
/// SimConfig::Validate() bounds on purpose: the point is that any legal
/// configuration holds the invariants, not that illegal ones are caught
/// (config_test covers those).
SimConfig RandomConfig(Rng& rng, PolicyKind policy) {
  SimConfig cfg = SimConfig::WithPolicy(policy);
  cfg.num_cores = 1 + static_cast<std::uint32_t>(rng.Below(3));       // 1-3
  cfg.num_partitions = 1 + static_cast<std::uint32_t>(rng.Below(3));  // 1-3
  cfg.l1d.geom.sets = 8u << rng.Below(3);   // 8/16/32
  cfg.l1d.geom.ways = 2u << rng.Below(2);   // 2/4
  cfg.l1d.mshr_entries = 4u << rng.Below(3);  // 4/8/16
  cfg.l1d.mshr_max_merged = 2 + static_cast<std::uint32_t>(rng.Below(6));
  cfg.l1d.miss_queue_entries = 2 + static_cast<std::uint32_t>(rng.Below(6));
  cfg.l1d.prot.sample_accesses = 100 + static_cast<std::uint32_t>(rng.Below(400));
  cfg.l1d.prot.sample_max_cycles = 2000 + static_cast<std::uint32_t>(rng.Below(8000));
  cfg.max_core_cycles = 2000000;
  cfg.ValidateOrThrow();  // sanity: the generator itself must stay legal
  return cfg;
}

std::unique_ptr<Program> RandomKernel(Rng& rng) {
  ProgramBuilder b(4 + static_cast<std::uint32_t>(rng.Below(6)));
  const int ops = 3 + static_cast<int>(rng.Below(4));
  for (int i = 0; i < ops; ++i) {
    switch (rng.Below(5)) {
      case 0:
        b.Alu(1 + static_cast<std::uint32_t>(rng.Below(20)));
        break;
      case 1:
        b.LoadStream();
        break;
      case 2:
        b.LoadPrivate(1 + rng.Below(8));
        break;
      case 3:
        b.LoadShared(4 + rng.Below(16), 2);
        break;
      default:
        b.StoreStream();
        break;
    }
  }
  b.Alu(2);  // never end on a memory op with zero trailing compute
  return b.Build();
}

TEST(RobustStress, RandomConfigsHoldInvariantsUnderEveryPolicy) {
  Rng rng(20260807);
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    for (PolicyKind policy :
         {PolicyKind::kBaseline, PolicyKind::kStallBypass,
          PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
      const SimConfig cfg = RandomConfig(rng, policy);
      auto prog = RandomKernel(rng);
      const std::uint32_t warps = 2 + static_cast<std::uint32_t>(rng.Below(7));
      SCOPED_TRACE(std::string(ToString(policy)) + " round " +
                   std::to_string(round) + " warps " + std::to_string(warps));

      InvariantChecker checker(/*check_interval=*/1024,
                               /*throw_on_violation=*/true);
      Watchdog wd(
          WatchdogConfig{/*check_interval=*/1024, /*stall_cycles=*/200000});
      GpuSimulator gpu(cfg, prog.get(), warps);
      gpu.Attach(&checker);
      gpu.Attach(&wd);

      Metrics m;
      ASSERT_NO_THROW(m = gpu.Run());
      EXPECT_FALSE(wd.tripped());
      EXPECT_EQ(gpu.run_error(), RunError::kNone);
      EXPECT_EQ(m.completed, 1u);
      EXPECT_GT(checker.checks_run(), 0u);
      EXPECT_EQ(checker.violations(), 0u);
    }
  }
}

}  // namespace
}  // namespace dlpsim::robust
