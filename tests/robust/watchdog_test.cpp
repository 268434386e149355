// Watchdog tests: a hand-crafted livelock must become a structured
// diagnostic + typed error instead of silently burning the cycle budget.
#include "robust/watchdog.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "gpu/simulator.h"
#include "obs/progress.h"
#include "robust/error.h"
#include "robust/fault.h"
#include "workloads/registry.h"

namespace dlpsim::robust {
namespace {

SimConfig TinyGpu(PolicyKind policy = PolicyKind::kBaseline) {
  SimConfig cfg = SimConfig::WithPolicy(policy);
  cfg.num_cores = 2;
  cfg.num_partitions = 2;
  cfg.max_core_cycles = 1000000;
  return cfg;
}

std::unique_ptr<Program> SmallKernel() {
  ProgramBuilder b(8);
  b.Alu(10).LoadStream().Alu(5).LoadPrivate(2).StoreStream().Alu(5);
  return b.Build();
}

TEST(Watchdog, ObserveTripsOnceAfterStallWindow) {
  Watchdog wd(WatchdogConfig{/*check_interval=*/100, /*stall_cycles=*/1000});
  // Progressing signatures never trip.
  EXPECT_FALSE(wd.Observe(1, 100));
  EXPECT_FALSE(wd.Observe(2, 200));
  // Signature freezes at cycle 200; the window must elapse first.
  EXPECT_FALSE(wd.Observe(2, 300));
  EXPECT_FALSE(wd.Observe(2, 1100));
  // 1201 - 200 > 1000: trip, exactly once.
  EXPECT_TRUE(wd.Observe(2, 1300));
  EXPECT_TRUE(wd.tripped());
  EXPECT_FALSE(wd.Observe(2, 1400));
  EXPECT_EQ(wd.last_progress_cycle(), 200u);
}

TEST(Watchdog, HandCraftedLivelockProducesTypedErrorAndDiagnostic) {
  // Livelock: freeze the crossbar "forever" mid-run. Every warp ends up
  // waiting on memory that can never arrive; without the watchdog this
  // burns the full 1M-cycle budget.
  auto prog = SmallKernel();
  FaultPlan plan;
  plan.stall_cycles = 1u << 30;  // effectively frozen forever
  plan.events.push_back(
      FaultEvent{/*cycle=*/2000, FaultKind::kIcntStall, 0, 0, 0});
  FaultInjector injector(plan);

  Watchdog wd(WatchdogConfig{/*check_interval=*/512, /*stall_cycles=*/20000});
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  gpu.Attach(&injector);
  gpu.Attach(&wd);
  const Metrics m = gpu.Run();

  // Typed error, well before the hard cycle budget.
  EXPECT_EQ(gpu.run_error(), RunError::kWatchdogStall);
  EXPECT_TRUE(wd.tripped());
  EXPECT_EQ(m.completed, 0u);
  EXPECT_LT(m.core_cycles, 200000u);

  // The diagnostic names the stalled resource (the frozen interconnect)
  // and carries per-SM state.
  const StallDiagnostic& d = wd.diagnostic();
  EXPECT_EQ(d.StalledResource(), "interconnect");
  EXPECT_GT(d.icnt_in_flight, 0u);
  EXPECT_EQ(d.sms.size(), 2u);
  EXPECT_GT(d.total_wait_mem, 0u);
  EXPECT_GT(d.trip_cycle, d.last_progress_cycle);

  const std::string text = d.ToText();
  EXPECT_NE(text.find("interconnect"), std::string::npos);
  EXPECT_NE(text.find("watchdog"), std::string::npos);

  std::ostringstream os;
  d.WriteJson(os);
  EXPECT_NE(os.str().find("\"stalled_resource\""), std::string::npos);
}

TEST(Watchdog, HandCraftedLivelockQuotesLastHeartbeat) {
  // The livelock above with a progress meter attached: the diagnostic
  // quotes the meter's last line, and the trip lands on the same cycle
  // as in a build without the observer interface.
  auto prog = SmallKernel();
  FaultPlan plan;
  plan.stall_cycles = 1u << 30;
  plan.events.push_back(
      FaultEvent{/*cycle=*/2000, FaultKind::kIcntStall, 0, 0, 0});
  FaultInjector injector(plan);
  std::ostringstream heartbeats;
  obs::ProgressMeter meter(1000, "livelock", &heartbeats);
  Watchdog wd(WatchdogConfig{/*check_interval=*/512, /*stall_cycles=*/20000},
              &meter);
  GpuSimulator gpu(TinyGpu(), prog.get(), 4);
  gpu.Attach(&injector);
  gpu.Attach(&meter);
  gpu.Attach(&wd);
  const Metrics m = gpu.Run();

  ASSERT_EQ(gpu.run_error(), RunError::kWatchdogStall);
  const StallDiagnostic& d = wd.diagnostic();
  EXPECT_FALSE(d.last_heartbeat.empty());
  EXPECT_EQ(d.last_heartbeat, meter.last_line());
  EXPECT_NE(d.last_heartbeat.find("cycle=23000"), std::string::npos);
  EXPECT_EQ(d.trip_cycle, 23041u);
  EXPECT_EQ(d.last_progress_cycle, 2561u);
  EXPECT_EQ(m.core_cycles, 23041u);
}

TEST(Watchdog, CycleBudgetIsTypedError) {
  SimConfig cfg = TinyGpu();
  cfg.max_core_cycles = 500;
  ProgramBuilder b(1000000);  // cannot finish in 500 cycles
  b.Alu(100).LoadStream();
  auto prog = b.Build();
  GpuSimulator gpu(cfg, prog.get(), 4);
  const Metrics m = gpu.Run();
  EXPECT_EQ(m.completed, 0u);
  EXPECT_EQ(gpu.run_error(), RunError::kCycleBudget);
}

TEST(Watchdog, CleanRunNeverTripsAndResultsAreByteIdentical) {
  auto prog = SmallKernel();

  GpuSimulator plain(TinyGpu(), prog.get(), 4);
  const Metrics ref = plain.Run();
  ASSERT_EQ(ref.completed, 1u);

  Watchdog wd(WatchdogConfig{/*check_interval=*/256, /*stall_cycles=*/50000});
  GpuSimulator watched(TinyGpu(), prog.get(), 4);
  watched.Attach(&wd);
  const Metrics m = watched.Run();

  EXPECT_FALSE(wd.tripped());
  EXPECT_EQ(watched.run_error(), RunError::kNone);
  EXPECT_EQ(m.ToText(), ref.ToText());
}

TEST(Watchdog, RunErrorToStringIsStable) {
  EXPECT_STREQ(ToString(RunError::kNone), "none");
  EXPECT_STREQ(ToString(RunError::kWatchdogStall), "watchdog_stall");
  EXPECT_STREQ(ToString(RunError::kCycleBudget), "cycle_budget");
}

TEST(RunErrorRoundTrip, ExceptionCarriesKindAndMessage) {
  const RunErrorException e(RunError::kWatchdogStall, "no progress");
  EXPECT_EQ(e.kind(), RunError::kWatchdogStall);
  EXPECT_STREQ(e.what(), "no progress");
  // It is a runtime_error, so generic catch sites keep working.
  EXPECT_NE(dynamic_cast<const std::runtime_error*>(&e), nullptr);
}

}  // namespace
}  // namespace dlpsim::robust
