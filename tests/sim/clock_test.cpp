#include "sim/clock.h"

#include <gtest/gtest.h>

namespace dlpsim {
namespace {

TEST(ClockDomainSet, SingleDomainTicksEveryCall) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain(650.0);
  for (int i = 1; i <= 10; ++i) {
    const auto& fired = clocks.Tick();
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0], core);
    EXPECT_EQ(clocks.cycles(core), static_cast<Cycle>(i));
  }
}

TEST(ClockDomainSet, EqualFrequenciesStayInLockstep) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain(650.0);
  const auto icnt = clocks.AddDomain(650.0);
  for (int i = 0; i < 1000; ++i) {
    const auto& fired = clocks.Tick();
    ASSERT_EQ(fired.size(), 2u) << "iteration " << i;
  }
  EXPECT_EQ(clocks.cycles(core), 1000u);
  EXPECT_EQ(clocks.cycles(icnt), 1000u);
}

TEST(ClockDomainSet, FasterDomainTicksProportionally) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain(650.0);
  const auto mem = clocks.AddDomain(924.0);
  // Advance until the core domain has seen 6500 cycles.
  while (clocks.cycles(core) < 6500) clocks.Tick();
  // mem should have ~ 6500 * 924 / 650 = 9240 cycles (within one tick).
  EXPECT_NEAR(static_cast<double>(clocks.cycles(mem)), 9240.0, 2.0);
}

TEST(ClockDomainSet, TimeAdvancesMonotonically) {
  ClockDomainSet clocks;
  clocks.AddDomain(650.0);
  clocks.AddDomain(924.0);
  double last = 0.0;
  for (int i = 0; i < 500; ++i) {
    clocks.Tick();
    EXPECT_GT(clocks.now_ns(), last);
    last = clocks.now_ns();
  }
}

TEST(ClockDomainSet, NoDriftOverLongRuns) {
  ClockDomainSet clocks;
  const auto core = clocks.AddDomain(650.0);
  for (int i = 0; i < 100000; ++i) clocks.Tick();
  // cycle * period must match simulated time exactly (no accumulation).
  const double period = 1000.0 / 650.0;
  EXPECT_NEAR(clocks.now_ns(),
              static_cast<double>(clocks.cycles(core)) * period, 1e-6);
}

}  // namespace
}  // namespace dlpsim
