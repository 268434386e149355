// The differential harness end to end: clean agreement on fuzzed traces
// for every policy, field-level stats diffing, and -- the critical
// self-test -- a deliberately planted oracle bug must be caught and
// shrunk to a small reproducer. A harness that cannot catch a planted
// off-by-one would pass every real run vacuously.
#include "verify/differential.h"

#include <gtest/gtest.h>

#include "verify/fuzzer.h"

namespace dlpsim::verify {
namespace {

TEST(Differential, AgreesOnFuzzedTracesForEveryPolicy) {
  for (const PolicyKind policy :
       {PolicyKind::kBaseline, PolicyKind::kStallBypass,
        PolicyKind::kGlobalProtection, PolicyKind::kDlp}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const FuzzCase c = MakeFuzzCase(seed, policy);
      const std::optional<Divergence> d = RunFuzzCase(c);
      EXPECT_FALSE(d.has_value())
          << ToString(policy) << " seed " << seed << ": " << d->ToString();
    }
  }
}

TEST(Differential, DiffStatsNamesEveryDifferingField) {
  CacheStats a;
  CacheStats b;
  a.load_hits = 3;
  b.load_hits = 5;
  b.bypasses = 1;
  const std::string diff = DiffStats(a, b);
  EXPECT_NE(diff.find("load_hits"), std::string::npos) << diff;
  EXPECT_NE(diff.find("bypasses"), std::string::npos) << diff;
  EXPECT_EQ(diff.find("accesses"), std::string::npos) << diff;
  EXPECT_TRUE(DiffStats(a, a).empty());
}

TEST(Differential, DiffStatsWalksTheCacheStatsFieldTable) {
  // The field table lists every CacheStats counter exactly once, so a
  // difference in any one of them is named, and only that one.
  const auto fields = CacheStatsFields();
  EXPECT_EQ(fields.size() * sizeof(std::uint64_t), sizeof(CacheStats));
  for (const CacheStatsField& f : fields) {
    CacheStats a;
    CacheStats b;
    b.*(f.member) = 1;
    EXPECT_EQ(DiffStats(a, b),
              std::string(f.name) + ": real=0 oracle=1");
  }
}

TEST(Differential, TwinRealIdenticalConfigsNeverDiverge) {
  const FuzzCase c = MakeFuzzCase(11, PolicyKind::kDlp);
  const std::optional<Divergence> d =
      RunTwinReal(c.config, c.config, c.trace, c.params);
  EXPECT_FALSE(d.has_value()) << d->ToString();
}

/// Fuzz cases biased towards frequent Fig. 9 updates: small sampling
/// windows mean every ~16 accesses run the PD update, so a planted PD
/// bug diverges quickly and shrinks to a handful of windows.
FuzzCase SmallWindowCase(std::uint64_t seed) {
  FuzzCase c = MakeFuzzCase(seed, PolicyKind::kDlp);
  c.config.prot.sample_accesses = 16;
  return c;
}

TEST(Differential, PlantedPdOffByOneIsCaughtAndShrunkSmall) {
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 20 && !caught; ++seed) {
    const FuzzCase c = SmallWindowCase(seed);
    const std::optional<Divergence> d =
        RunFuzzCase(c, OracleBug::kPdDecreaseOffByOne);
    if (!d.has_value()) continue;
    caught = true;
    std::size_t steps = 0;
    const std::vector<TraceAccess> shrunk =
        ShrinkTrace(c, OracleBug::kPdDecreaseOffByOne, &steps);
    // Acceptance bar: the reproducer must be tiny (a couple of sampling
    // windows), not the original multi-hundred-access trace.
    EXPECT_LE(shrunk.size(), 50u)
        << "seed " << seed << " shrunk to " << shrunk.size()
        << " accesses in " << steps << " runs";
    // The shrunk trace must still diverge under the same config.
    FuzzCase small = c;
    small.trace = shrunk;
    EXPECT_TRUE(RunFuzzCase(small, OracleBug::kPdDecreaseOffByOne).has_value());
  }
  EXPECT_TRUE(caught)
      << "no seed in 1..20 triggered the planted PD decrease bug";
}

TEST(Differential, PlantedClampAndDecayAndVtaBugsAreCaught) {
  for (const OracleBug bug :
       {OracleBug::kPdIncreaseNoClamp, OracleBug::kSkipDecayOnStores,
        OracleBug::kVtaKeepOnHit}) {
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 30 && !caught; ++seed) {
      caught = RunFuzzCase(SmallWindowCase(seed), bug).has_value();
    }
    EXPECT_TRUE(caught) << "planted bug " << static_cast<int>(bug)
                        << " survived 30 fuzzed traces";
  }
}

}  // namespace
}  // namespace dlpsim::verify
