#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>

#include <unistd.h>

#include "harness.h"
#include "sim/config.h"
#include "trace/hash.h"

namespace dlpsim::bench {
namespace {

namespace fs = std::filesystem;

RunResult SampleResult() {
  RunResult r;
  r.metrics.core_cycles = 1234;
  r.metrics.committed_thread_insns = 99;
  r.metrics.l1d_load_hits = 42;
  r.profile.global.buckets = {1, 2, 3, 4};
  r.profile.reuse_accesses = 10;
  r.profile.reuse_misses = 5;
  r.profile.per_pc[7].buckets = {9, 8, 7, 6};
  return r;
}

// The <cfg> component of a cache file name for `cfg`.
std::string ConfigHash(const SimConfig& cfg) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0')
     << trace::FnvHash64(CanonicalText(cfg));
  return os.str();
}

class CacheIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per process: ctest runs these tests in parallel
    // processes, and a shared directory let one test's TearDown delete
    // another's files.
    dir_ = fs::path(::testing::TempDir()) /
           ("dlpsim_cache_io_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    ::unsetenv("DLPSIM_CACHE_DIR");
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(CacheIoTest, StoreLoadRoundTrip) {
  const fs::path path = dir_ / "entry.txt";
  const RunResult r = SampleResult();
  StoreCacheFile(path, r);
  ASSERT_TRUE(fs::exists(path));

  RunResult back;
  ASSERT_TRUE(LoadCacheFile(path, &back));
  EXPECT_EQ(back.metrics.ToText(), r.metrics.ToText());
  EXPECT_EQ(back.profile.ToText(), r.profile.ToText());
}

TEST_F(CacheIoTest, StoreLeavesNoTempFiles) {
  const fs::path path = dir_ / "entry.txt";
  StoreCacheFile(path, SampleResult());
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST_F(CacheIoTest, MissingFileFails) {
  EXPECT_FALSE(LoadCacheFile(dir_ / "nope.txt", nullptr));
}

TEST_F(CacheIoTest, TruncatedEntryRejected) {
  const fs::path path = dir_ / "entry.txt";
  StoreCacheFile(path, SampleResult());

  // Simulate a writer killed mid-write: chop the file anywhere. No
  // truncation point may yield a loadable entry, because every complete
  // entry ends with the footer line.
  std::string full;
  {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    full = buf.str();
  }
  for (std::size_t len = 0; len < full.size(); len += 7) {
    std::ofstream(path, std::ios::trunc) << full.substr(0, len);
    EXPECT_FALSE(LoadCacheFile(path, nullptr)) << "truncated at " << len;
  }
}

TEST_F(CacheIoTest, GarbageWithFooterRejected) {
  const fs::path path = dir_ / "entry.txt";
  std::ofstream(path) << "not a metrics block\n---\nnot a profile\n"
                      << "#complete\n";
  EXPECT_FALSE(LoadCacheFile(path, nullptr));
}

TEST_F(CacheIoTest, PathIsScaleAware) {
  const fs::path a = CachePathFor("SRK", "base", 1.0);
  const fs::path b = CachePathFor("SRK", "base", 0.5);
  const fs::path c = CachePathFor("SRK", "dlp", 1.0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

TEST_F(CacheIoTest, ModelDigestIsSixteenHexDigits) {
  const std::string_view digest = ModelDigest();
  ASSERT_EQ(digest.size(), 16u);
  EXPECT_EQ(digest.find_first_not_of("0123456789abcdef"),
            std::string_view::npos);
}

TEST_F(CacheIoTest, PathKeysAppScalePresetTextAndModelDigest) {
  const fs::path p = CachePathFor("HS", "base", 0.01);
  const SimConfig preset = ConfigFor("base");
  EXPECT_EQ(p.filename().string(), "HS_base_s0.01_" + ConfigHash(preset) +
                                       "_" + std::string(ModelDigest()) +
                                       ".txt");
  EXPECT_EQ(p, CachePathFor("HS", "base", 0.01, ModelDigest()));

  // A rebuilt model, another app and another scale each move the path.
  EXPECT_NE(p, CachePathFor("HS", "base", 0.01, "0123456789abcdef"));
  EXPECT_NE(p, CachePathFor("NW", "base", 0.01));
  EXPECT_NE(p, CachePathFor("HS", "base", 0.02));

  // So does an edit to the preset: the <cfg> component follows every
  // field CanonicalText covers, not the preset's name.
  SimConfig edited = preset;
  edited.l1d.mshr_entries += 1;
  EXPECT_NE(ConfigHash(edited), ConfigHash(preset));
  EXPECT_EQ(p.filename().string().find(ConfigHash(edited)), std::string::npos);
}

TEST_F(CacheIoTest, RunNeverReturnsAStaleEntry) {
  // Run() consults the disk cache under DLPSIM_CACHE_DIR.
  const std::string app = "HS";
  const std::string config = "dlp";
  constexpr double kScale = 0.01;
  ASSERT_EQ(::setenv("DLPSIM_CACHE_DIR", dir_.c_str(), 1), 0);
  const fs::path fresh = CachePathFor(app, config, kScale);

  // Plausible but wrong results for the same cell, stored under the names
  // an older build could have left behind: another model digest, an
  // edited preset's config hash, and the pre-digest "v2_" name.
  SimConfig edited = ConfigFor(config);
  edited.l1d.mshr_entries += 1;
  std::string edited_name = fresh.filename().string();
  const std::string preset_hash = ConfigHash(ConfigFor(config));
  edited_name.replace(edited_name.find(preset_hash), preset_hash.size(),
                      ConfigHash(edited));
  const RunResult stale = SampleResult();
  StoreCacheFile(CachePathFor(app, config, kScale, "0000000000000000"), stale);
  StoreCacheFile(dir_ / edited_name, stale);
  StoreCacheFile(dir_ / "v2_HS_dlp_s0.01.txt", stale);
  ASSERT_FALSE(fs::exists(fresh));

  const RunResult r = bench::Run(app, config, kScale);

  // The cell simulated instead of loading a stale entry ...
  EXPECT_NE(r.metrics.ToText(), stale.metrics.ToText());
  EXPECT_EQ(r.metrics.ToText(),
            SimulateUncached(app, config, kScale).metrics.ToText());
  // ... and stored its result under the current key.
  RunResult stored;
  ASSERT_TRUE(LoadCacheFile(fresh, &stored));
  EXPECT_EQ(stored.metrics.ToText(), r.metrics.ToText());
  EXPECT_EQ(stored.profile.ToText(), r.profile.ToText());
}

}  // namespace
}  // namespace dlpsim::bench
